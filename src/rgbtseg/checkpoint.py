"""Binary checkpoint format with a trailing checksum.

Layout (all integers little-endian):
  magic   4 bytes  b"TSEG"
  version u32      currently 1
  count   u32      number of parameter records
  records          for each parameter:
      name_len u32, name bytes (utf-8),
      dtype    u8  (0 = float64; no other code is valid),
      ndim     u8, dims u32 * ndim,
      frozen   u8,
      raw little-endian scalar data
  crc32   u32      zlib.crc32 of every preceding byte

Round trips are bit-exact, including frozen flags.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


class CheckpointError(Exception):
    pass


class BadMagicError(CheckpointError):
    pass


class BadVersionError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    pass


MAGIC = b"TSEG"
VERSION = 1
_FLOAT64 = 0  # the one record dtype code
_F8 = np.dtype("<f8")


def serialize(state: dict[str, tuple[np.ndarray, bool]]) -> bytes:
    out = [MAGIC, struct.pack("<II", VERSION, len(state))]
    for name, (arr, frozen) in state.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype != np.float64:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for '{name}'")
        nb = name.encode()
        out.append(struct.pack("<I", len(nb)))
        out.append(nb)
        out.append(struct.pack("<BB", _FLOAT64, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(struct.pack("<B", 1 if frozen else 0))
        out.append(arr.astype(_F8, copy=False).tobytes())
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize(blob: bytes) -> dict[str, tuple[np.ndarray, bool]]:
    """The state in ``blob``. The records are read through a view of the
    blob, so each array is copied out of it once and owns its data."""
    if len(blob) < 16:
        raise TruncatedError(f"checkpoint too short ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}")
    body, (stored_crc,) = memoryview(blob)[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != stored_crc:
        raise ChecksumError("checksum mismatch: checkpoint corrupted or truncated")
    version, count = struct.unpack_from("<II", body, 4)
    if version != VERSION:
        raise BadVersionError(f"unsupported checkpoint version {version}")
    pos = 12
    state: dict[str, tuple[np.ndarray, bool]] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", body, pos)
            pos += 4
            name = bytes(body[pos:pos + name_len]).decode()
            pos += name_len
            code, ndim = struct.unpack_from("<BB", body, pos)
            pos += 2
            dims = struct.unpack_from(f"<{ndim}I", body, pos)
            pos += 4 * ndim
            (frozen,) = struct.unpack_from("<B", body, pos)
            pos += 1
            if code != _FLOAT64:
                raise CheckpointError(f"unknown dtype code {code} for '{name}'")
            n = int(np.prod(dims, dtype=np.int64))
            nbytes = n * _F8.itemsize
            if pos + nbytes > len(body):
                raise TruncatedError(f"record '{name}' runs past end of file")
            arr = np.frombuffer(body, dtype=_F8, count=n, offset=pos).reshape(dims)
            pos += nbytes
            state[name] = (arr.astype(np.float64), frozen)
    except struct.error as e:
        raise TruncatedError(f"checkpoint ends mid-record: {e}") from e
    if pos != len(body):
        raise CheckpointError(f"{len(body) - pos} trailing bytes after last record")
    return state


def save_checkpoint(state: dict[str, tuple[np.ndarray, bool]], path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(state))


def load_checkpoint(path) -> dict[str, tuple[np.ndarray, bool]]:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
