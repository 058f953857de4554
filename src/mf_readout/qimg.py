"""Binary image-stack container and its JSON sidecar.

Layout, all little-endian:

    bytes 0..3   magic b"QIMG"
    bytes 4..5   format version, u16 (currently 1)
    bytes 6..9   n_images, u32
    bytes 10..11 height, u16
    bytes 12..13 width, u16
    then n_images*height*width float32 pixel values, row-major.

The sidecar <stem>.json carries exactly the keys "config", "truth", and
"seed" so a stack can be regenerated or relabeled without the binary.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .sim import LabeledImageStack, SimConfig
from .util import write_atomic

MAGIC = b"QIMG"
VERSION = 1
_HEADER = struct.Struct("<4sHIHH")


def write_stack(path, stack: LabeledImageStack) -> None:
    """Write the stack to path plus its JSON sidecar next to it.

    The sidecar goes first and each file is moved into place whole, so a
    binary under its final name always has its sidecar beside it.
    """
    path = Path(path)
    n, h, w = stack.images.shape
    sidecar = {
        "config": stack.config.to_dict(),
        "truth": stack.truth.astype(int).tolist(),
        "seed": stack.config.seed,
    }
    write_atomic(path.with_suffix(".json"), (json.dumps(sidecar, sort_keys=True) + "\n").encode())
    payload = np.ascontiguousarray(stack.images, dtype="<f4")
    write_atomic(path, _HEADER.pack(MAGIC, VERSION, n, h, w), payload)


def read_stack(path) -> LabeledImageStack:
    """Read a stack written by write_stack, validating header and sizes."""
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as f:
            header = f.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise DataError(f"{path}: truncated header")
            magic, version, n, h, w = _HEADER.unpack(header)
            if magic != MAGIC:
                raise DataError(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise DataError(f"{path}: unsupported format version {version}")
            expected = _HEADER.size + 4 * n * h * w
            if size != expected:
                raise DataError(f"{path}: expected {expected} bytes, found {size}")
            # read straight into the result, so the payload is held once
            images = np.empty((n, h, w), dtype="<f4")
            f.readinto(images)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise DataError(f"{sidecar_path}: sidecar not found")
    try:
        with open(sidecar_path) as f:
            sidecar = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{sidecar_path}: unreadable sidecar: {exc}") from exc
    if set(sidecar) != {"config", "truth", "seed"}:
        raise DataError(f"{sidecar_path}: sidecar keys {sorted(sidecar)} are not the expected trio")
    config = SimConfig.from_dict(sidecar["config"])
    truth = np.asarray(sidecar["truth"], dtype=np.uint8)
    if truth.ndim != 2 or truth.shape[0] != n:
        raise DataError(f"{sidecar_path}: truth shape {truth.shape} does not match {n} images")
    if (h, w) != (config.image_height, config.image_width):
        raise DataError(
            f"{path}: header says {h}x{w} but config says "
            f"{config.image_height}x{config.image_width}"
        )
    if int(sidecar["seed"]) != config.seed:
        raise DataError(f"{sidecar_path}: sidecar seed disagrees with config seed")
    return LabeledImageStack(images=images, truth=truth, config=config)
