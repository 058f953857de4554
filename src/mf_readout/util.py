"""Small shared helpers: seeded RNG streams, canonical hashing, the one
JSON file reader, the one config dict reader, the one finiteness rule
for config and data numbers, atomic file writes, stable number formatting, and
handing freed heap memory back to the operating system."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MFReadoutError


def _key_words(part) -> tuple[int, ...]:
    """Map one key part to unsigned 32-bit words for a SeedSequence spawn key."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"seed key parts must be non-negative, got {part}")
        words = []
        p = int(part)
        while True:
            words.append(p & 0xFFFFFFFF)
            p >>= 32
            if p == 0:
                return tuple(words)
    if isinstance(part, str):
        return _name_words(part)
    raise TypeError(f"unsupported seed key part: {part!r}")


@functools.lru_cache(maxsize=256)
def _name_words(name: str) -> tuple[int, ...]:
    """Words of a string key part; cached, as every frame rehashes a name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def seed_sequence(seed: int, *key) -> np.random.SeedSequence:
    """SeedSequence for a named child stream; a pure function of (seed, key)."""
    spawn_key = tuple(w for part in key for w in _key_words(part))
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


def stream(seed: int, *key) -> np.random.Generator:
    """Independent Generator for the (seed, key) stream."""
    return np.random.default_rng(seed_sequence(seed, *key))


def derive_seed(seed: int, *key) -> int:
    """64-bit child seed for the (seed, key) stream."""
    return int(seed_sequence(seed, *key).generate_state(1, np.uint64)[0])


def read_json(path, error=DataError):
    """The JSON value in the file at path.

    A file that cannot be opened, decoded or parsed raises error (a
    package error class) naming the path. Every config, geometry, model
    and sidecar file is read here.
    """
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise error(f"cannot read {path}: {exc}") from exc


def read_dataclass(cls, d, error, **nested):
    """cls(**d) for the dataclass cls, each nested field's dict read by
    its reader in nested (field name -> from_dict).

    A key that is not a field of cls, a missing field without a default
    and a value that cls rejects all raise error (a package error class)
    naming them. Defaults come from the dataclass alone, and the casts to
    each field's type happen in its __post_init__.
    """
    if not isinstance(d, dict):
        raise error(f"a {cls.__name__} is a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise error(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")
    try:
        return cls(**{k: nested[k](v) if k in nested else v for k, v in d.items()})
    except MFReadoutError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"bad {cls.__name__}: {exc}") from exc


def cast_fields(obj, cast, *names) -> None:
    """Set each named field of the frozen dataclass obj to cast(its value),
    so a config built in code and one read from JSON hold the same types."""
    for name in names:
        object.__setattr__(obj, name, cast(getattr(obj, name)))


def require_finite(name: str, value, error=ConfigError) -> None:
    """error (a package error class) naming name when value, a number or a
    sequence of numbers, holds a NaN or an infinity. Python's JSON reader
    accepts both, and numpy would only fail on them deep inside a run, if
    at all.
    """
    if not np.isfinite(value).all():
        raise error(f"{name} must be finite, got {value}")


def finite_fields(obj, *names, error=ConfigError) -> None:
    """require_finite on each named field of obj."""
    for name in names:
        require_finite(name, getattr(obj, name), error)


def write_atomic(path, *chunks) -> None:
    """Write the bytes-like chunks to path as one file, whole or not at all.

    The chunks go to a temporary file in the same directory, which
    os.replace then moves over path, so an interrupted write never leaves
    a half-written file under the final name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def release_free_heap() -> None:
    """Return the C heap's free pages to the operating system (glibc only).

    glibc keeps freed memory below its trim threshold (up to 64 MB once
    large arrays have come and gone) and every free hole under a live
    block resident, so after a sweep the process holds an amount that
    depends on the order of its allocations rather than on what is live.
    A no-op where the C library has no malloc_trim.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero-point-five-up."""
    return int(np.floor(x + 0.5))


def canonical_json(obj) -> str:
    """JSON text with sorted keys and no whitespace; stable across runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    """Short sha256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float, for CSV output."""
    return repr(float(x))
