"""Binary portable graymap (P5) and pixmap (P6) codecs, maxval 255.

Grayscale carries thermal images and label maps (label maps store raw class
ids); pixmaps carry RGB. Floats in [0, 1] quantize as round(v * 255).
Malformed input raises PnmFormatError naming the byte offset.
"""

from __future__ import annotations

import math

import numpy as np


class PnmFormatError(ValueError):
    pass


def _quantize(data: np.ndarray) -> np.ndarray:
    if data.dtype == np.uint8:
        return data
    return np.clip(np.round(data * 255.0), 0, 255).astype(np.uint8)


def _write(path, magic: str, data: np.ndarray) -> None:
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def write_pgm(path, data: np.ndarray) -> None:
    data = _quantize(np.asarray(data))
    if data.ndim == 3 and data.shape[2] == 1:
        data = data[:, :, 0]
    if data.ndim != 2:
        raise PnmFormatError(f"graymap needs a 2-d array, got shape {data.shape}")
    _write(path, "P5", data)


def write_ppm(path, data: np.ndarray) -> None:
    data = _quantize(np.asarray(data))
    if data.ndim != 3 or data.shape[2] != 3:
        raise PnmFormatError(f"pixmap needs an [H, W, 3] array, got {data.shape}")
    _write(path, "P6", data)


def _parse_header(blob: bytes, expected_magic: bytes):
    if blob[:2] != expected_magic:
        raise PnmFormatError(
            f"bad magic {blob[:2]!r} at byte 0, expected {expected_magic!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and comment lines
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token.isdigit():
            raise PnmFormatError(f"expected integer at byte {start}, got {token!r}")
        fields.append(int(token))
    if pos >= len(blob):
        raise PnmFormatError(f"header ends at byte {pos} with no payload")
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise PnmFormatError(f"unsupported maxval {maxval} (only 255)")
    return w, h, pos


def _read(path, magic: bytes, channels: tuple) -> np.ndarray:
    """The [H, W, *channels] pixels of the file at ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    w, h, pos = _parse_header(blob, magic)
    n = w * h * math.prod(channels)
    payload = blob[pos:pos + n]
    if len(payload) != n:
        raise PnmFormatError(
            f"truncated payload at byte {pos + len(payload)}: "
            f"expected {n} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, *channels).copy()


def read_pgm(path) -> np.ndarray:
    return _read(path, b"P5", ())


def read_ppm(path) -> np.ndarray:
    return _read(path, b"P6", (3,))


def to_float(img: np.ndarray) -> np.ndarray:
    return img.astype(np.float64) / 255.0
