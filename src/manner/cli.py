"""Command-line interface: train, enhance, eval, bench.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure. Set MANNER_THREADS to cap BLAS parallelism.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .audio import AudioClip, pair_corpus, read_wav, write_wav
from .checkpoint import load_checkpoint
from .config import RunConfig, parse_run_config
from .errors import ConfigError, DataError, MannerError
from .metrics import si_snr
from .model import build_model, manner_forward
from .tensor import Tensor
from .trainer import train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

log = logging.getLogger(__name__)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="manner", description="Time-domain speech enhancement toolkit.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", required=True, help="run configuration file")
    t.add_argument("--out", required=True, help="directory for checkpoints and the training log")
    t.add_argument("--seed", type=int, default=None, help="override the configured seed")

    e = sub.add_parser("enhance", help="denoise WAV files with a trained checkpoint")
    e.add_argument("inputs", nargs="+", help="noisy WAV files or directories of them")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("eval", help="report SI-SNR improvement on a paired corpus")
    v.add_argument("noisy_dir")
    v.add_argument("clean_dir")
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--out", default=None, help="optional directory for eval.csv")

    b = sub.add_parser("bench", help="forward-pass latency and memory by input length")
    b.add_argument("--config", default=None, help="model config (defaults when omitted)")
    b.add_argument("--checkpoint", default=None, help="bench an existing checkpoint instead")
    b.add_argument("--variant", choices=["full", "small", "both"], default="both")
    b.add_argument("--lengths", default="1,2,3,4,5,6,7,8,9,10", help="comma-separated seconds")
    b.add_argument("--runs", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True, help="directory for per-variant CSVs")
    return p


def _expand_inputs(raw: list[str]) -> list[Path]:
    files: list[Path] = []
    for item in raw:
        path = Path(item)
        if path.is_dir():
            found = sorted(path.glob("*.wav"))
            if not found:
                raise DataError(f"{path}: directory contains no WAV files")
            files.extend(found)
        elif path.is_file():
            files.append(path)
        else:
            raise DataError(f"{path}: no such file or directory")
    return files


def _output_paths(files: list[Path], out_dir: Path) -> list[Path]:
    """out_dir/<name> per input; refuses two inputs of one name and any
    output that is an input."""
    inputs = {p.resolve() for p in files}
    sources: dict[Path, Path] = {}
    for path in files:
        target = out_dir / path.name
        if target in sources:
            raise DataError(f"{sources[target]} and {path} would both be written to {target}")
        if target.resolve() in inputs:
            raise DataError(f"{target} would overwrite an input file; choose another --out")
        sources[target] = path
    return list(sources)


def _enhance_clip(params, clip: AudioClip, name: str) -> np.ndarray:
    x = Tensor(clip.samples[None, None, :])
    y = manner_forward(x, params, params.config, training=False).data[0, 0]
    if not np.all(np.isfinite(y)):  # a NaN weight would otherwise be written as silence
        raise MannerError(f"{name}: enhanced output is not finite; is the checkpoint damaged?")
    return np.clip(y, -1.0, 1.0)


def cmd_train(args) -> int:
    cfg = parse_run_config(args.config)
    if args.seed is not None:
        cfg.trainer.seed = args.seed
    if not cfg.noisy_dir or not cfg.clean_dir:
        raise ConfigError("training needs [data] noisy_dir and clean_dir")
    corpus = pair_corpus(cfg.noisy_dir, cfg.clean_dir)
    val = None
    if cfg.val_noisy_dir or cfg.val_clean_dir:
        if not (cfg.val_noisy_dir and cfg.val_clean_dir):
            raise ConfigError("validation needs both val_noisy_dir and val_clean_dir")
        val = pair_corpus(cfg.val_noisy_dir, cfg.val_clean_dir)

    params = build_model(cfg.model, seed=cfg.trainer.seed)
    result = train(params, corpus, cfg.trainer, out_dir=args.out,
                   val_corpus=val, resolutions=cfg.resolutions)
    print(f"trained {result.steps} steps; best validation loss {result.best_val:.6g}")
    if result.best_path is not None:
        print(f"best checkpoint: {result.best_path}")
    if result.last_path is not None:
        print(f"last checkpoint: {result.last_path}")
    return EXIT_OK


def cmd_enhance(args) -> int:
    params, _, _, _ = load_checkpoint(args.checkpoint)
    files = _expand_inputs(args.inputs)
    out_dir = Path(args.out)
    targets = _output_paths(files, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, target in zip(files, targets):
        write_wav(target, AudioClip(_enhance_clip(params, read_wav(path), str(path))))
        print(f"{path} -> {target}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, _, _, _ = load_checkpoint(args.checkpoint)
    corpus = pair_corpus(args.noisy_dir, args.clean_dir)
    rows = []  # (name, before, after); None scores mark an unscored row
    for pair in corpus:
        try:
            before = si_snr(pair.noisy.samples, pair.clean.samples)
        except ValueError as exc:  # a silent reference has no SI-SNR
            log.warning("%s: unscored (%s)", pair.name, exc)
            rows.append((pair.name, None, None))
            continue
        after = si_snr(_enhance_clip(params, pair.noisy, pair.name), pair.clean.samples)
        rows.append((pair.name, before, after))
    scored = [row for row in rows if row[1] is not None]
    if not scored:
        raise DataError("no utterance could be scored: every clean reference is silent")

    print(f"{'utterance':<28} {'noisy dB':>10} {'enhanced dB':>12} {'delta dB':>10}")
    for name, before, after in rows:
        if before is None:
            print(f"{name:<28} {'unscored':>10}")
        else:
            print(f"{name:<28} {before:>10.2f} {after:>12.2f} {after - before:>10.2f}")
    mean_before = float(np.mean([b for _, b, _ in scored]))
    mean_after = float(np.mean([a for _, _, a in scored]))
    print(f"{'mean':<28} {mean_before:>10.2f} {mean_after:>12.2f} {mean_after - mean_before:>10.2f}")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "eval.csv", "w") as f:
            f.write("utterance,si_snr_noisy_db,si_snr_enhanced_db,delta_db\n")
            for name, before, after in rows:
                if before is None:
                    f.write(f"{name},,,\n")
                else:
                    f.write(f"{name},{before:.4f},{after:.4f},{after - before:.4f}\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        lengths = [int(s) for s in args.lengths.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --lengths value: {exc}") from exc
    if not lengths or any(s < 1 for s in lengths):
        raise ConfigError("--lengths needs positive integer seconds")
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")

    if args.checkpoint is not None:
        builders = [lambda: load_checkpoint(args.checkpoint)[0]]
    else:
        cfg = parse_run_config(args.config) if args.config else RunConfig()
        variants = [args.variant] if args.variant != "both" else ["full", "small"]
        configs = [replace(cfg.model, variant=v) for v in variants]
        builders = [lambda mc=mc: build_model(mc, seed=args.seed) for mc in configs]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for build in builders:
        # One model is resident at a time, so no variant's MiB counts
        # another's weights.
        report = bench_mod.run_bench(build(), lengths, runs=args.runs, seed=args.seed)
        report.write_csv(out_dir / f"bench_{report.variant}.csv")
        reports.append(report)
    print(bench_mod.format_table(reports))
    for report in reports:
        print(f"wrote {out_dir / f'bench_{report.variant}.csv'}")
    return EXIT_OK


_COMMANDS = {"train": cmd_train, "enhance": cmd_enhance, "eval": cmd_eval, "bench": cmd_bench}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the reason
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (MannerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("error: out of memory; try shorter inputs or the small variant", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
