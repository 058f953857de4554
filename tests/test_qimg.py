import json
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mf_readout import DataError, crop, default_config, generate_dataset, read_stack, write_stack


@pytest.fixture()
def stack():
    return generate_dataset(default_config(n_images=6, seed=13))


def test_round_trip(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    assert path.exists() and (tmp_path / "ds.json").exists()
    back = read_stack(path)
    assert np.array_equal(back.images, stack.images)
    assert back.images.dtype == np.float32
    assert np.array_equal(back.truth, stack.truth)
    assert back.config == stack.config


def test_read_holds_the_payload_once(tmp_path):
    stack = generate_dataset(default_config(n_images=1000, seed=14))
    path = tmp_path / "big.qimg"
    write_stack(path, stack)
    tracemalloc.start()
    try:
        back = read_stack(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.images, stack.images)
    assert peak < 1.5 * stack.images.nbytes


def test_write_is_deterministic(tmp_path, stack):
    write_stack(tmp_path / "a.qimg", stack)
    write_stack(tmp_path / "b.qimg", stack)
    assert (tmp_path / "a.qimg").read_bytes() == (tmp_path / "b.qimg").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cropped_stack_round_trips(tmp_path, stack):
    cropped = crop(stack, 2, 3, 20, 21)
    path = tmp_path / "c.qimg"
    write_stack(path, cropped)
    back = read_stack(path)
    assert back.images.shape == (6, 20, 21)
    assert back.config.geometry.origin_px == (6.0, 5.0)


def test_header_layout(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    raw = path.read_bytes()
    magic, version, n, h, w = struct.unpack_from("<4sHIHH", raw)
    assert (magic, version, n, h, w) == (b"QIMG", 2, 6, 28, 28)
    assert len(raw) == 14 + 4 * n * h * w


def test_missing_file(tmp_path):
    with pytest.raises(DataError):
        read_stack(tmp_path / "nope.qimg")


def test_bad_magic(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="magic"):
        read_stack(path)


def test_bad_version(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        read_stack(path)


def test_truncated_payload(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(DataError, match="bytes"):
        read_stack(path)


def _cut_last_frames(path: Path, count: int) -> None:
    path.write_bytes(path.read_bytes()[: -count * 4 * 28 * 28])


def test_a_stack_that_shrinks_before_it_is_opened_is_a_data_error(tmp_path, stack, monkeypatch):
    # the binary loses its last 3 frames between a stat of its path and the
    # open: it is sized as opened, so the last frames are never left as
    # whatever np.empty held
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    stale = path.stat()
    _cut_last_frames(path, 3)
    stat = Path.stat
    monkeypatch.setattr(Path, "stat", lambda self, **kw: stale if self == path else stat(self, **kw))
    with pytest.raises(DataError, match=re.escape(f"{path}: expected")):
        read_stack(path)


def test_a_short_read_is_a_data_error(tmp_path, stack, monkeypatch):
    # sized whole, but the payload ends 3 frames early when read
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    whole = os.stat(path)
    _cut_last_frames(path, 3)
    monkeypatch.setattr(os, "fstat", lambda fd: whole)
    with pytest.raises(DataError, match=re.escape(f"{path}: short read")):
        read_stack(path)


def test_missing_sidecar(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    (tmp_path / "ds.json").unlink()
    with pytest.raises(DataError, match="sidecar"):
        read_stack(path)


def test_sidecar_key_check(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    sidecar = json.loads((tmp_path / "ds.json").read_text())
    for bad in ({**sidecar, "extra": 1}, 5, list(sidecar)):
        (tmp_path / "ds.json").write_text(json.dumps(bad))
        with pytest.raises(DataError, match="keys"):
            read_stack(path)


def test_sidecar_truth_shape_check(tmp_path, stack):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    sidecar = json.loads((tmp_path / "ds.json").read_text())
    sidecar["truth"] = sidecar["truth"][:-1]
    (tmp_path / "ds.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataError, match="truth is not a list of 6 rows"):
        read_stack(path)


def _set_truth_row(sidecar, row):
    sidecar["truth"][0] = row


def _set_truth_char(sidecar, char):
    _set_truth_row(sidecar, char + sidecar["truth"][0][1:])


# the sidecar's truth is one string of '0'/'1' per frame; each fault below
# breaks one rule of that format (a character other than 0 or 1, ASCII or
# not, a row that is not a string, a row of the wrong length, a missing
# row) or another sidecar key
@pytest.mark.parametrize(
    "fault",
    [
        lambda sc: _set_truth_char(sc, chr(256)),
        lambda sc: _set_truth_char(sc, "x"),
        lambda sc: _set_truth_char(sc, "2"),
        lambda sc: _set_truth_row(sc, 0.5),
        lambda sc: sc.update(seed="abc"),
        lambda sc: sc["config"].pop("p_bright"),
        lambda sc: sc["config"].update(exposure_ms="long"),
        lambda sc: sc.update(truth=[row[:3] for row in sc["truth"]]),
        lambda sc: sc.update(truth=[row[:-1] for row in sc["truth"][:-1]] + [sc["truth"][-1]]),
        lambda sc: _set_truth_row(sc, sc["truth"][0][:-1]),
        lambda sc: sc["truth"].pop(),
        lambda sc: _set_truth_row(sc, [int(c) for c in sc["truth"][0]]),
        lambda sc: sc.update(truth="".join(sc["truth"])),
    ],
    ids=["truth-256", "truth-x", "truth-2", "truth-half", "seed-abc", "config-key-removed",
         "config-value", "truth-3-columns", "truth-ragged", "truth-short-row", "truth-missing-row",
         "truth-list-row", "truth-one-string"],
)
def test_malformed_sidecar_is_a_data_error(tmp_path, stack, fault):
    path = tmp_path / "ds.qimg"
    write_stack(path, stack)
    sidecar = json.loads((tmp_path / "ds.json").read_text())
    fault(sidecar)
    (tmp_path / "ds.json").write_text(json.dumps(sidecar))
    with pytest.raises(DataError):
        read_stack(path)


def test_empty_stack_round_trips(tmp_path):
    empty = generate_dataset(default_config(n_images=0))
    write_stack(tmp_path / "e.qimg", empty)
    back = read_stack(tmp_path / "e.qimg")
    assert back.images.shape == (0, 28, 28) and back.truth.shape == (0, 9)
    assert back.truth.dtype == np.uint8
