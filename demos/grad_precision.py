# -*- coding: utf-8 -*-
"""
===========================================
Float32 gradient error against float64
===========================================

Run one training step of the full default model in float32 and again in
float64 from the same weights and inputs, and report the relative L2 error
of the float32 gradients over all trainable tensors together, per input
seed and as the median over seeds. This is the precision figure a change
that moves float32 rounding must not make worse.

    python demos/grad_precision.py --seeds 12

One run of the error is chaotic: a change that only reorders float32 sums
can move one seed's error several-fold. `--ulp-trials N` adds N Monte Carlo
arithmetic trials per seed (Parker, "Monte Carlo Arithmetic", 1997): trial
t moves every float32 input sample one ulp up or down, with signs drawn
from `default_rng([t, seed])`, so two trees see the same perturbations.
The per-seed figure is then the median over trials 0..N, trial 0 being the
unperturbed run. The gate compares a change with its parent seed by seed:

    # parent tree, 2N+2 trials; fixes the threshold before the change runs
    python demos/grad_precision.py --ulp-trials 13 --save parent.json
    # change tree, trials 0..6 on the same seeds
    python demos/grad_precision.py --ulp-trials 6 --gate parent.json

The statistic is the median over seeds of change/parent per-seed medians.
The threshold is the 95th percentile of the same statistic over every
split of the parent's own trials into two halves, i.e. how far reshuffled
rounding alone moves it. The gate exits 1 when the statistic exceeds it.

With trials, the error is also reported per parameter group (the first
field of a parameter's name: first, enc1..enc4, bottleneck, dec4..dec1,
mask, out), and the gate prints each group's statistic against its own
split threshold, so that a failure names the layer that moved.
"""

import argparse
import itertools
import json

import numpy as np

from manner import ModelConfig, Tensor, build_model
from manner.audio import TARGET_RATE
from manner.loss import weighted_total_loss
from manner.model import manner_forward, trainable
from manner.tensor import Tape, backward, reshape

################################################################################
# `build_model(seed=0)` draws its weights in float64 and rounds them to the
# dtype asked for; the inputs are treated alike. Each input seed draws a
# B=2 x 0.5 s batch of clean signal plus noise, which each run rounds to
# its own precision, so the error counts storage as well as arithmetic.

def batch(seed, batch_size=2, seconds=0.5):
    rng = np.random.default_rng(seed)
    shape = (batch_size, int(seconds * TARGET_RATE))
    clean = 0.1 * rng.standard_normal(shape)
    return clean + 0.05 * rng.standard_normal(shape), clean


def gradients(params, noisy, clean, dtype):
    noisy, clean = noisy.astype(dtype), clean.astype(dtype)
    for t in params.values():
        t.grad = None
    with Tape() as tape:
        est = manner_forward(Tensor(noisy[:, None, :]), params, params.config, training=True)
        loss, _ = weighted_total_loss(Tensor(noisy), Tensor(clean), reshape(est, noisy.shape))
    backward(tape, loss)
    return np.concatenate([t.grad.astype(np.float64).ravel() for t in trainable(params).values()])


################################################################################
# Trial 0 rounds the inputs to float32; a perturbed trial then moves each
# sample one ulp. The float64 reference keeps the unrounded inputs, so it is
# run once per seed.

def nudge(x32, rng):
    """x32 with every element moved one ulp towards +inf or -inf at random."""
    towards = np.where(rng.integers(0, 2, x32.shape) == 1, np.float32(np.inf), np.float32(-np.inf))
    return np.nextafter(x32, towards)


def group_spans(params):
    """{group: [(start, stop), ...]}: where each parameter group's gradients
    sit in the concatenated vector; the group is a name's first field."""
    spans, start = {}, 0
    for name, t in trainable(params).items():
        spans.setdefault(name.split(".")[0], []).append((start, start + t.size))
        start += t.size
    return spans


def span_norm(v, parts):
    return np.sqrt(sum(np.dot(v[a:b], v[a:b]) for a, b in parts))


def trial_errors(seed, p32, p64, trials):
    """Relative errors of trials 0..trials on one input seed: the whole
    model's, and {group: errors} per parameter group."""
    noisy, clean = batch(seed)
    g64 = gradients(p64, noisy, clean, np.float64)
    spans = group_spans(p32)
    errors, groups = [], {name: [] for name in spans}
    for trial in range(trials + 1):
        n32, c32 = noisy.astype(np.float32), clean.astype(np.float32)
        if trial:
            rng = np.random.default_rng([trial, seed])
            n32, c32 = nudge(n32, rng), nudge(c32, rng)
        diff = gradients(p32, n32, c32, np.float32) - g64
        errors.append(float(np.linalg.norm(diff) / np.linalg.norm(g64)))
        for name, parts in spans.items():
            groups[name].append(float(span_norm(diff, parts) / span_norm(g64, parts)))
    return errors, groups


def paired_statistic(change, parent):
    """Median over seeds of change/parent, each a median over its trials."""
    return float(np.median(np.median(change, axis=1) / np.median(parent, axis=1)))


def split_threshold(parent, quantile=0.95):
    """The statistic's `quantile` over all splits of the parent's trials
    into two equal halves: what reshuffled rounding alone reads."""
    parent = np.asarray(parent)
    cols = range(parent.shape[1])
    stats = [paired_statistic(parent[:, list(a)], parent[:, [c for c in cols if c not in a]])
             for a in itertools.combinations(cols, parent.shape[1] // 2)]
    return float(np.quantile(stats, quantile))


################################################################################
# One line per seed, then the median. Training-mode batch norm updates the
# running statistics as a side effect, which leaves the gradients of later
# seeds unchanged.

def main(argv=None):
    parser = argparse.ArgumentParser(description="float32 vs float64 gradient error of one training step")
    parser.add_argument("--seeds", type=int, default=12, help="input seeds 0..N-1")
    parser.add_argument("--ulp-trials", type=int, default=0, help="±1-ulp input trials per seed")
    parser.add_argument("--save", help="write the per-seed, per-trial errors to this JSON file")
    parser.add_argument("--gate", help="JSON a parent tree saved with at least 2N+2 trials")
    args = parser.parse_args(argv)
    p32, p64 = (build_model(ModelConfig(), seed=0, dtype=dt) for dt in (np.float32, np.float64))
    rows, groups = [], {}
    for seed in range(args.seeds):
        errors, per_group = trial_errors(seed, p32, p64, args.ulp_trials)
        rows.append(errors)
        for name, values in per_group.items():
            groups.setdefault(name, []).append(values)
        line = f"seed {seed:3d}: {100 * rows[-1][0]:.4f}%"
        if args.ulp_trials:
            trials = " ".join(f"{100 * e:.4f}" for e in rows[-1][1:])
            line += f" trials [{trials}] median {100 * float(np.median(rows[-1])):.4f}%"
        print(line, flush=True)
    rows = np.array(rows)
    print(f"median over {args.seeds} seeds: {100 * float(np.median(rows[:, 0])):.4f}%")
    if args.ulp_trials:
        print(f"median over {args.seeds} seeds of {args.ulp_trials + 1}-trial medians: "
              f"{100 * float(np.median(np.median(rows, axis=1))):.4f}%")
        for name, values in groups.items():
            print(f"  group {name}: {100 * float(np.median(np.median(values, axis=1))):.4f}%")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seeds": args.seeds, "errors": rows.tolist(), "groups": groups}, f)
    if args.gate:
        with open(args.gate) as f:
            saved = json.load(f)
        parent = np.array(saved["errors"])
        if parent.shape[0] != args.seeds or parent.shape[1] < 2 * (args.ulp_trials + 1):
            raise SystemExit(f"{args.gate} needs {args.seeds} seeds and >= {2 * (args.ulp_trials + 1)} trials")
        half, full = args.ulp_trials + 1, 2 * (args.ulp_trials + 1)
        for name, values in saved.get("groups", {}).items():
            base = np.array(values)
            group_stat = paired_statistic(groups[name], base[:, :half])
            group_threshold = split_threshold(base[:, :full])
            flag = "  <- over" if group_stat > group_threshold else ""
            print(f"gate group {name}: change/parent {group_stat:.4f}, threshold {group_threshold:.4f}{flag}")
        threshold = split_threshold(parent[:, :full])
        stat = paired_statistic(rows, parent[:, :half])
        verdict = "pass" if stat <= threshold else "FAIL"
        print(f"gate: change/parent {stat:.4f}, threshold {threshold:.4f} (parent split): {verdict}")
        return 0 if stat <= threshold else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
