"""Self-describing binary checkpoints.

Layout: 8-byte magic "MANNERCK", u32 LE format version, u64 LE header
length, UTF-8 JSON header, then raw little-endian float32 payloads in
header order (model tensors first, then Adam m/v pairs per trainable).
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import ModelConfig, ModelParams, build_model, trainable

MAGIC = b"MANNERCK"
VERSION = 1


def save_checkpoint(path, params: ModelParams, optimizer=None,
                    step: int = 0, epoch: int = 0) -> None:
    """Write config, every model tensor, and optionally the Adam state."""
    entries = [{"name": n, "shape": list(t.shape)} for n, t in params.items()]
    payloads = [t.data for t in params.values()]
    opt_header = None
    if optimizer is not None:
        names = list(trainable(params))
        opt_header = {
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "t": optimizer.t,
            "params": names,
        }
        for n in names:
            payloads.append(optimizer.m[n])
            payloads.append(optimizer.v[n])
    header = {
        "config": params.config.to_dict(),
        "step": step,
        "epoch": epoch,
        "params": entries,
        "optimizer": opt_header,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # Written beside the target and renamed over it, so a crash mid-write
    # leaves the previous checkpoint whole. No fsync: surviving a killed
    # process needs only the rename, not a power cut.
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for arr in payloads:
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path, dtype=np.float32):
    """Returns (ModelParams, AdamState | None, step, epoch).

    The model is rebuilt from the stored config without drawing weights,
    and every tensor is overwritten in place, so a float32 save restores
    bit-for-bit.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"{path}: no such checkpoint")
    with open(path, "rb") as f:
        if _read_exact(f, len(MAGIC), "magic") != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (hlen,) = struct.unpack("<Q", _read_exact(f, 8, "header length"))
        try:
            header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc

        try:
            config = ModelConfig.from_dict(header["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad model config ({exc})") from exc
        params = build_model(config, seed=None, dtype=dtype)

        entries = header.get("params", [])
        if [e["name"] for e in entries] != list(params):
            raise CheckpointError(f"{path}: parameter manifest does not match the architecture")

        def read_array(shape, what):
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(f, count * 4, what)
            return np.frombuffer(raw, dtype="<f4").reshape(shape)

        for entry in entries:
            t = params[entry["name"]]
            shape = tuple(entry["shape"])
            if shape != t.shape:
                raise CheckpointError(
                    f"{path}: shape {shape} for {entry['name']} does not match {t.shape}"
                )
            t.data[...] = read_array(shape, entry["name"]).astype(dtype)

        optimizer = None
        opt = header.get("optimizer")
        if opt is not None:
            from .trainer import AdamState

            optimizer = AdamState(beta1=opt["beta1"], beta2=opt["beta2"],
                                  eps=opt["eps"], t=opt["t"])
            slots = trainable(params)
            for name in opt["params"]:
                if name not in slots:
                    raise CheckpointError(f"{path}: optimizer slot {name!r} is not a trainable parameter")
                shape = slots[name].shape
                optimizer.m[name] = read_array(shape, f"m[{name}]").astype(dtype)
                optimizer.v[name] = read_array(shape, f"v[{name}]").astype(dtype)

        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after payload")

    return params, optimizer, int(header.get("step", 0)), int(header.get("epoch", 0))
