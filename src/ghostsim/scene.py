"""Object masks and the bucket detector.

A mask is a float64 (height, width) array of transmittances in [0, 1].
Built-in shapes are binary; file round-trips go through 8-bit PGM.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractError, PgmFormatError, memory_guard
from .pgm import read_pgm, write_pgm

BUILTIN_MASKS = ("TH", "double-slit", "disk", "checker")


def _th(width: int, height: int) -> np.ndarray:
    # block letters T and H side by side in the central ~60% of the grid
    m = np.zeros((height, width))
    x0 = round(0.2 * width)
    x1 = width - x0
    y0 = round(0.2 * height)
    y1 = height - y0
    gap = max(2, round(0.08 * (x1 - x0)))
    cell_w = (x1 - x0 - gap) // 2
    cell_h = y1 - y0
    stroke = max(2, round(0.18 * cell_h))
    # T: top bar plus centered stem
    m[y0 : y0 + stroke, x0 : x0 + cell_w] = 1.0
    stem = x0 + cell_w // 2 - stroke // 2
    m[y0:y1, stem : stem + stroke] = 1.0
    # H: two uprights plus crossbar
    hx = x0 + cell_w + gap
    m[y0:y1, hx : hx + stroke] = 1.0
    m[y0:y1, hx + cell_w - stroke : hx + cell_w] = 1.0
    mid = y0 + cell_h // 2 - stroke // 2
    m[mid : mid + stroke, hx : hx + cell_w] = 1.0
    return m


def _slits(width: int, height: int, x0: int, slit_w: int) -> np.ndarray:
    """Zeros but two full-height bands of 1.0, slit_w columns wide, centered a third and two thirds of columns x0.."""
    m = np.zeros((height, width))
    for center in (x0 + (width - x0) // 3, x0 + (2 * (width - x0)) // 3):
        a = center - slit_w // 2
        m[:, a : a + slit_w] = 1.0
    return m


def _double_slit(width: int, height: int) -> np.ndarray:
    # exactly two disjoint full-height vertical bands
    return _slits(width, height, 0, max(1, round(0.06 * width)))


def _disk(width: int, height: int) -> np.ndarray:
    # centered on the symmetric point so a square disk survives rot90 exactly
    r = 0.3 * min(width, height)
    y = np.arange(height)[:, None] - (height - 1) / 2.0
    x = np.arange(width)[None, :] - (width - 1) / 2.0
    return (y * y + x * x <= r * r).astype(np.float64)


def _checker(width: int, height: int) -> np.ndarray:
    ty = max(1, height // 8)
    tx = max(1, width // 8)
    y = np.arange(height)[:, None] // ty
    x = np.arange(width)[None, :] // tx
    return ((y + x) % 2).astype(np.float64)


def builtin_mask(name: str, width: int, height: int) -> np.ndarray:
    """One of the built-in binary masks at the given grid size (>= 8 each)."""
    if width < 8 or height < 8:
        raise ConfigurationError(f"mask grid must be at least 8x8, got {width}x{height}")
    makers = {"TH": _th, "double-slit": _double_slit, "disk": _disk, "checker": _checker}
    if name not in BUILTIN_MASKS:  # a tuple: an unhashable name from JSON is just unknown
        raise ConfigurationError(f"unknown mask name {name!r}; choose from {BUILTIN_MASKS}")
    with memory_guard(f"a {width}x{height} mask", width * height * 8):
        mask = makers[name](width, height)
    return check_contrast(mask, f"mask {name!r} at {width}x{height}")


def check_contrast(mask: np.ndarray, what: str, field: str | None = None) -> np.ndarray:
    """The mask, if images can score against it: a pixel >= 0.5 and two below, as cnr needs (so it is not constant)."""
    if not 1 <= np.count_nonzero(mask >= 0.5) <= mask.size - 2:
        raise ConfigurationError(f"{what} is degenerate: it needs a pixel >= 0.5 and two below 0.5", field=field)
    return mask


def load_mask(path) -> np.ndarray:
    """Load transmittances from an 8-bit binary PGM (pixel/255)."""
    arr, maxval = read_pgm(path)
    if maxval != 255:
        raise PgmFormatError(f"masks must be 8-bit PGM (maxval 255), got {maxval}")
    return arr.astype(np.float64) / 255.0


def save_mask(mask: np.ndarray, path) -> None:
    """Write transmittances to an 8-bit binary PGM (round(t*255))."""
    m = np.asarray(mask, dtype=np.float64)
    if m.ndim != 2:
        raise ContractError("mask must be 2-D")
    if m.min() < 0.0 or m.max() > 1.0:
        raise ContractError("mask values must lie in [0, 1]")
    write_pgm(path, np.rint(m * 255.0).astype(np.uint8), 255)


def bucket_signals(frames: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Total transmitted intensity of each of m frames (m, height, width): sum over pixels of frame * mask, (m,)."""
    return (frames * mask).reshape(len(frames), -1).sum(axis=1)


def bucket_signal(frame: np.ndarray, mask: np.ndarray) -> float:
    """Total transmitted intensity: sum over pixels of frame * mask."""
    if frame.shape != mask.shape:
        raise ContractError(f"frame {frame.shape} and mask {mask.shape} differ in shape")
    return float(bucket_signals(frame[None], mask)[0])
