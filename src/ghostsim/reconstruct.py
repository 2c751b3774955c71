"""GI and IGI reconstruction.

gi_reconstruct is the classical mean-subtracted correlation

    G(x) = (1/N) sum_n [S_n - <S>] [I_n(x) - <I(x)>]

computed in two passes so that large DC offsets on either side cancel before
any product is formed. igi_reconstruct correlates consecutive differences

    G_igi(x) = (1/(2(N-1))) sum_{n=1..N-1} [S_{n+1}-S_n] [I_{n+1}(x)-I_n(x)]

and needs no running means, which is what makes it streamable and immune to
slow additive drift. The "paper-literal" normalization divides by 2N instead
of 2(N-1). All accumulation is float64 regardless of frame dtype.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, PgmFormatError
from .measurement import MeasurementRecord, MeasurementSeries
from .noise import NoiseWaveform, per_step_noise_delta_bound
from .pgm import write_pgm

_F64_MAGIC = b"GF64"
_F64_VERSION = 1

IGI_NORMALIZATIONS = ("unbiased", "paper-literal")


def _norm_divisor(normalization: str, pairs: int) -> float:
    if normalization == "unbiased":
        return 2.0 * pairs
    if normalization == "paper-literal":
        return 2.0 * (pairs + 1)
    raise ContractError(f"unknown normalization {normalization!r}; choose from {IGI_NORMALIZATIONS}")


def gi_reconstruct(series: MeasurementSeries) -> np.ndarray:
    """Mean-subtracted correlation image, float64 (height, width)."""
    n = len(series)
    s = np.asarray(series.s, dtype=np.float64)
    flat = series.frames.reshape(n, -1)
    ds = s - s.mean()
    mean_frame = flat.mean(axis=0, dtype=np.float64)
    acc, step = np.zeros(flat.shape[1]), series.block
    for a in range(0, n, step):
        b = min(a + step, n)
        # both factors centered before multiplying; DC offsets cancel here
        acc += ds[a:b] @ (flat[a:b] - mean_frame)
    return (acc / n).reshape(series.height, series.width)


def igi_reconstruct(series: MeasurementSeries, normalization: str = "unbiased") -> np.ndarray:
    """Consecutive-difference correlation image, float64 (height, width)."""
    n = len(series)
    divisor = _norm_divisor(normalization, n - 1)
    s = np.asarray(series.s, dtype=np.float64)
    flat = series.frames.reshape(n, -1)
    acc, step = np.zeros(flat.shape[1]), series.block
    for a in range(0, n - 1, step):
        b = min(a + step, n - 1)
        acc += (s[a + 1 : b + 1] - s[a:b]) @ (flat[a + 1 : b + 1].astype(np.float64) - flat[a:b])
    return (acc / divisor).reshape(series.height, series.width)


class IgiAccumulator:
    """Streaming IGI state: previous record plus the running difference sum.

    Memory is O(width*height) and independent of how many records flow
    through. Records must arrive in ordinal order with no gaps (n, n+1, ...);
    a skipped, repeated or reordered record is a ContractError, since it
    would silently pair the wrong frames. Single-writer: one pusher at a
    time. finalize() is a snapshot; pushing more records afterwards and
    finalizing again is allowed.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ContractError("accumulator needs positive frame dimensions")
        self.width = width
        self.height = height
        self.pairs = 0
        self._prev_n: int | None = None
        self._prev_s: float | None = None
        self._prev_frame: np.ndarray | None = None
        self._sum = np.zeros((height, width))

    def push(self, record: MeasurementRecord) -> None:
        frame = record.frame
        if frame.shape != (self.height, self.width):
            raise ContractError(f"frame {frame.shape} does not fit accumulator {(self.height, self.width)}")
        if self._prev_frame is not None:
            if record.n != self._prev_n + 1:
                raise ContractError(f"record {record.n} follows record {self._prev_n}; ordinals must be consecutive")
            self._sum += (record.s - self._prev_s) * (frame.astype(np.float64) - self._prev_frame)
            self.pairs += 1
        self._prev_n = record.n
        self._prev_s = float(record.s)
        self._prev_frame = np.asarray(frame, dtype=np.float64).copy()

    def finalize(self, normalization: str = "unbiased") -> np.ndarray:
        if self.pairs < 1:
            raise ContractError("finalize needs at least one pushed pair (two records)")
        return self._sum / _norm_divisor(normalization, self.pairs)


@dataclass
class ValidityReport:
    """Is the noise slow enough, per step, for IGI to cancel it?"""

    signal_delta_rms: float
    noise_delta_bound: float
    ratio: float
    flag: str  # "IGI regime" | "marginal" | "breakdown"

    def to_dict(self) -> dict:
        return {
            "signal_delta_rms": self.signal_delta_rms,
            "noise_delta_bound": self.noise_delta_bound,
            "ratio": self.ratio,
            "flag": self.flag,
        }


def validity_diagnostic(
    clean_bucket: np.ndarray,
    waveform: NoiseWaveform,
    coupling: float = 1.0,
) -> ValidityReport:
    """Compare the per-step noise bound against the clean bucket's per-step RMS.

    coupling scales the waveform before it reaches the bucket (the object-arm
    path attenuates position-A noise by sum(T)/(w*h); pass that factor here).
    """
    s = np.asarray(clean_bucket, dtype=np.float64)
    if len(s) < 2:
        raise ContractError("validity diagnostic needs at least 2 bucket values")
    deltas = np.diff(s)
    rms = float(math.sqrt(np.mean(deltas * deltas)))
    if rms == 0.0:
        raise DegenerateInputError("clean bucket series is constant; per-step RMS is zero")
    bound = per_step_noise_delta_bound(waveform) * float(coupling)
    ratio = bound / rms
    if ratio < 0.1:
        flag = "IGI regime"
    elif ratio < 1.0:
        flag = "marginal"
    else:
        flag = "breakdown"
    return ValidityReport(signal_delta_rms=rms, noise_delta_bound=bound, ratio=ratio, flag=flag)


def save_recon_pgm(image: np.ndarray, path) -> None:
    """16-bit PGM preview; min/max of the affine mapping go to <path>.txt."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ContractError("reconstruction image must be 2-D")
    lo = float(img.min())
    hi = float(img.max())
    if hi > lo:
        scaled = np.rint((img - lo) / (hi - lo) * 65535.0).astype(np.uint16)
    else:
        scaled = np.zeros(img.shape, dtype=np.uint16)  # constant image maps to black
    write_pgm(path, scaled, 65535)
    with open(f"{path}.txt", "w") as fh:
        fh.write(f"min={lo!r}\nmax={hi!r}\n")


def save_f64(image: np.ndarray, path) -> None:
    """Raw float64 dump: GF64 header (magic, version, width, height), LE data."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ContractError("reconstruction image must be 2-D")
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(_F64_MAGIC + struct.pack("<III", _F64_VERSION, width, height))
        fh.write(img.astype("<f8").tobytes())


def load_f64(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _F64_MAGIC:
        raise PgmFormatError("not a float64 image dump: missing GF64 magic")
    if len(buf) < 16:
        raise PgmFormatError("truncated GF64 header")
    version, width, height = struct.unpack("<III", buf[4:16])
    if version != _F64_VERSION:
        raise PgmFormatError(f"unsupported GF64 version {version}")
    need = 16 + width * height * 8
    if len(buf) < need:
        raise PgmFormatError(f"truncated GF64 data: {len(buf)} of {need} bytes")
    return np.frombuffer(buf, dtype="<f8", count=width * height, offset=16).reshape(height, width).copy()
