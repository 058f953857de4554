"""Binary image-stack container and its JSON sidecar.

Layout, all little-endian:

    bytes 0..3   magic b"QIMG"
    bytes 4..5   format version, u16 (currently 2)
    bytes 6..9   n_images, u32
    bytes 10..11 height, u16
    bytes 12..13 width, u16
    then n_images*height*width float32 pixel values, row-major.

The sidecar <stem>.json carries exactly the keys "config", "truth", and
"seed" so a stack can be regenerated or relabeled without the binary.
"truth" holds one string of '0' and '1' per frame, one character per
site (label_rows), so reading it back is one decode of the joined ASCII
rather than a parse of every integer.

Format version 2 introduced those row strings; version 1 stored nested
lists of integers in the same binary layout. read_stack rejects a
version-1 binary, and label_matrix a nested-list sidecar or label file,
so a cached version-1 entry counts as a miss and is rendered again once.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .sim import LabeledImageStack, SimConfig
from .util import read_json, write_atomic

MAGIC = b"QIMG"
VERSION = 2
_HEADER = struct.Struct("<4sHIHH")


def label_rows(labels) -> list[str]:
    """A 0/1 label matrix as one string of '0' and '1' per row."""
    labels = np.asarray(labels, dtype=np.uint8)
    text = (labels + ord("0")).tobytes().decode("ascii")
    k = labels.shape[1]
    return [text[i * k : (i + 1) * k] for i in range(len(labels))]


def label_matrix(rows, shape, name: str = "labels") -> np.ndarray:
    """rows, as label_rows writes them, as a uint8 array of the given shape.

    A wrong row count, a row that is not a string, a row of the wrong
    length or any character other than '0' and '1' raises DataError
    naming name, so a damaged sidecar or label file is never read as
    labels.
    """
    n, k = shape
    if not isinstance(rows, list) or len(rows) != n:
        raise DataError(f"{name} is not a list of {n} rows")
    if not set(map(type, rows)) <= {str}:
        raise DataError(f"{name} holds a row that is not a string")
    if not set(map(len, rows)) <= {k}:
        raise DataError(f"{name} holds a row whose length is not {k}")
    try:
        text = "".join(rows).encode("ascii")
    except UnicodeEncodeError as exc:
        raise DataError(f"{name} holds characters other than 0 and 1") from exc
    bits = np.frombuffer(text, dtype=np.uint8) - np.uint8(ord("0"))
    if (bits > 1).any():
        raise DataError(f"{name} holds characters other than 0 and 1")
    return bits.reshape(n, k)


def write_stack(path, stack: LabeledImageStack) -> None:
    """Write the stack to path plus its JSON sidecar next to it.

    The sidecar goes first and each file is moved into place whole, so a
    binary under its final name always has its sidecar beside it.
    """
    path = Path(path)
    n, h, w = stack.images.shape
    sidecar = {
        "config": stack.config.to_dict(),
        "truth": label_rows(stack.truth),
        "seed": stack.config.seed,
    }
    write_atomic(path.with_suffix(".json"), (json.dumps(sidecar, sort_keys=True) + "\n").encode())
    payload = np.ascontiguousarray(stack.images, dtype="<f4")
    write_atomic(path, _HEADER.pack(MAGIC, VERSION, n, h, w), payload)


def read_stack(path) -> LabeledImageStack:
    """Read a stack written by write_stack, validating header, sizes and sidecar.

    Every fault found, in the binary or in its sidecar's config, seed or
    truth, raises DataError, and so does a binary that ends before its
    last pixel when read, even if it shrank after it was sized.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            # the size of the file opened, not of whatever the path named before
            size = os.fstat(f.fileno()).st_size
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
            got = f.readinto(images)
            if got != images.nbytes:
                raise DataError(f"{path}: short read, {got} of {images.nbytes} pixel bytes")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise DataError(f"{sidecar_path}: sidecar not found")
    sidecar = read_json(sidecar_path)
    if not isinstance(sidecar, dict) or set(sidecar) != {"config", "truth", "seed"}:
        raise DataError(f"{sidecar_path}: sidecar is not an object of the keys config, truth and seed")
    try:
        config = SimConfig.from_dict(sidecar["config"])
        seed = int(sidecar["seed"])
    except (ConfigError, ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"{sidecar_path}: bad config or seed: {exc}") from exc
    truth = label_matrix(sidecar["truth"], (n, config.geometry.n_sites), f"{sidecar_path}: truth")
    if (h, w) != (config.image_height, config.image_width):
        raise DataError(
            f"{path}: header says {h}x{w} but config says "
            f"{config.image_height}x{config.image_width}"
        )
    if seed != config.seed:
        raise DataError(f"{sidecar_path}: sidecar seed disagrees with config seed")
    return LabeledImageStack(images=images, truth=truth, config=config)
