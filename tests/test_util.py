import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mf_readout.util import (
    canonical_json,
    content_hash,
    derive_seed,
    fmt,
    round_half_up,
    stream,
    write_atomic,
)


def test_stream_is_reproducible():
    a = stream(42, "sim", 3).random(8)
    b = stream(42, "sim", 3).random(8)
    assert np.array_equal(a, b)


def test_streams_differ_by_key_and_seed():
    base = stream(42, "sim", 3).random(4)
    assert not np.array_equal(base, stream(42, "sim", 4).random(4))
    assert not np.array_equal(base, stream(42, "label", 3).random(4))
    assert not np.array_equal(base, stream(43, "sim", 3).random(4))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "split", 0) == derive_seed(7, "split", 0)
    seeds = {derive_seed(7, "split", i) for i in range(200)}
    assert len(seeds) == 200


def test_negative_or_odd_key_parts_rejected():
    with pytest.raises(ValueError):
        derive_seed(1, -3)
    with pytest.raises(TypeError):
        derive_seed(1, 2.5)


def test_write_atomic_replaces_whole_or_not_at_all(tmp_path):
    path = tmp_path / "f.bin"
    write_atomic(path, b"old")
    write_atomic(path, b"ab", np.arange(3, dtype="<f4"))
    assert path.read_bytes() == b"ab" + np.arange(3, dtype="<f4").tobytes()
    with pytest.raises(TypeError):
        write_atomic(path, b"half", object())  # fails after the first chunk
    assert path.read_bytes() == b"ab" + np.arange(3, dtype="<f4").tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin"]


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(3.5) == 4
    assert round_half_up(-0.5) == 0
    assert round_half_up(2.49) == 2


def test_canonical_json_sorts_and_strips():
    assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'


def test_content_hash_ignores_key_order_but_not_values():
    h1 = content_hash({"x": 1, "y": 2})
    assert h1 == content_hash({"y": 2, "x": 1})
    assert h1 != content_hash({"x": 1, "y": 3})
    assert len(h1) == 16


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips(x):
    assert float(fmt(x)) == x
    # fmt output must also survive a JSON round trip unchanged
    assert json.loads(fmt(x)) == x
