"""Binary checkpoint format: round trips and typed corruption errors."""

import struct
import zlib

import numpy as np
import pytest

from rgbtseg.checkpoint import (BadMagicError, BadVersionError, CheckpointError,
                                ChecksumError, TruncatedError, deserialize,
                                load_checkpoint, save_checkpoint, serialize)


def _state():
    rng = np.random.default_rng(0)
    return {
        "a.W": (rng.normal(size=(3, 4)), True),
        "b.bias": (rng.normal(size=(5,)), False),
    }


def test_round_trip_bytes_and_values(tmp_path):
    state = _state()
    blob = serialize(state)
    assert blob[:4] == b"TSEG"
    path = tmp_path / "ckpt.tseg"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert serialize(loaded) == blob
    for name, (arr, frozen) in state.items():
        got, got_frozen = loaded[name]
        assert np.array_equal(got, arr)
        assert got.flags.owndata and got.flags.writeable
        assert got_frozen == frozen


def test_bad_magic():
    blob = serialize(_state())
    with pytest.raises(BadMagicError):
        deserialize(b"NOPE" + blob[4:])


def test_bad_version():
    blob = serialize(_state())
    body = blob[:4] + struct.pack("<I", 99) + blob[8:-4]
    with pytest.raises(BadVersionError):
        deserialize(body + struct.pack("<I", zlib.crc32(body)))


def test_flipped_byte_fails_checksum():
    blob = serialize(_state())
    corrupt = blob[:20] + bytes([blob[20] ^ 0xFF]) + blob[21:]
    with pytest.raises(ChecksumError):
        deserialize(corrupt)


def test_truncation_is_typed():
    blob = serialize(_state())
    with pytest.raises((TruncatedError, ChecksumError)):
        deserialize(blob[:10])
    with pytest.raises(CheckpointError):
        deserialize(blob[: len(blob) - 7])


def test_unsupported_dtype_rejected():
    for dtype in (np.int64, np.float32):
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            serialize({"x": (np.zeros(3, dtype=dtype), False)})


def test_record_dtype_code_other_than_float64_rejected():
    # a hand-built record of dtype code 1 holding three float32 zeros
    name = b"x"
    body = (b"TSEG" + struct.pack("<II", 1, 1) + struct.pack("<I", len(name)) + name
            + struct.pack("<BBIB", 1, 1, 3, 0) + np.zeros(3, "<f4").tobytes())
    with pytest.raises(CheckpointError, match="unknown dtype code 1 for 'x'"):
        deserialize(body + struct.pack("<I", zlib.crc32(body)))


def test_empty_state_round_trips():
    assert deserialize(serialize({})) == {}
