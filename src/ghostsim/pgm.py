"""Minimal binary PGM (P5) reader/writer.

Handles the two sample widths this package emits: 8-bit (object masks) and
16-bit (reconstruction exports, most-significant byte first per the format).
Header parsing tolerates comment lines and arbitrary whitespace.
"""
from __future__ import annotations

import numpy as np

from .errors import PgmFormatError


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines, return (token, next position)
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError("truncated PGM header")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM. Returns (array (height, width), maxval).

    dtype is uint8 for maxval <= 255, uint16 (native order) otherwise.
    """
    if "\0" in str(path):  # open() raises ValueError for it
        raise OSError(f"invalid path {str(path)!r}: embedded null byte")
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise PgmFormatError("not a binary PGM: missing P5 magic")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        if not tok.isdigit():
            raise PgmFormatError(f"malformed PGM header field: {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmFormatError("PGM dimensions must be positive")
    if not 0 < maxval < 65536:
        raise PgmFormatError(f"PGM maxval out of range: {maxval}")
    pos += 1  # single whitespace byte after maxval
    per = 1 if maxval <= 255 else 2
    need = width * height * per
    raster = buf[pos : pos + need]
    if len(raster) < need:
        raise PgmFormatError(f"truncated PGM raster: {len(raster)} of {need} bytes")
    dt = np.uint8 if per == 1 else np.dtype(">u2")
    arr = np.frombuffer(raster, dtype=dt).reshape(height, width)
    if per == 2:
        arr = arr.astype(np.uint16)
    return arr.copy(), maxval


def write_pgm(path, array: np.ndarray, maxval: int) -> None:
    """Write a binary PGM. array must already hold integers in 0..maxval."""
    if array.ndim != 2:
        raise PgmFormatError("PGM raster must be 2-D")
    if not 0 < maxval < 65536:
        raise PgmFormatError(f"PGM maxval out of range: {maxval}")
    data = np.asarray(array)
    if data.min() < 0 or data.max() > maxval:
        raise PgmFormatError("sample values exceed maxval")
    dt = np.uint8 if maxval <= 255 else np.dtype(">u2")
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.astype(dt).tobytes())
