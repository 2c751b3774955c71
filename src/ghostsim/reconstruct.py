"""GI and IGI reconstruction.

gi_reconstruct is the classical mean-subtracted correlation

    G(x) = (1/N) sum_n [S_n - <S>] [I_n(x) - <I(x)>]

accumulated as centered co-moments, block by block, so that large DC offsets
on either side cancel before any product is formed. igi_reconstruct
correlates consecutive differences

    G_igi(x) = (1/(2(N-1))) sum_{n=1..N-1} [S_{n+1}-S_n] [I_{n+1}(x)-I_n(x)]

and needs no running means, which is what makes it streamable and immune to
slow additive drift. The "paper-literal" normalization divides by 2N instead
of 2(N-1). All accumulation is float64 regardless of frame dtype, in one
kernel, BlockCorrelator, whatever the source of the frames.
"""
from __future__ import annotations

import math
import os
import struct
from contextlib import nullcontext
from copy import deepcopy
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractError, DegenerateInputError, PgmFormatError, memory_guard
from .measurement import MeasurementRecord, MeasurementSeries, NoiseSpec, Scenario, _injector, block_records, clean_blocks
from .measurement import clean_bucket_series, patch_gsim_buckets, resolve_amplitude, write_gsim_header, write_gsim_records
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


class BlockCorrelator:
    """GI co-moments and IGI difference sums of K bucket rows against frames fed a block at a time, in ordinal order.

    GI merges each block's centered co-moment as C = C_a + C_b + (n_a n_b / n)(s_a - s_b)(I_a - I_b)
    over the block means (Chan, Golub & LeVeque 1979; Pebay 2008). IGI pairs the last record of a
    block with the first of the next. Both are linear in the rows: weights combine them at the end.
    """

    def __init__(self, rows: int, pixels: int, gi: bool = True, igi: bool = True):
        self.n, self.gi_on, self.igi_on = 0, gi, igi
        self.mean_s, self.mean_f = np.zeros(rows), np.zeros(pixels)
        self.comoment, self.diffsum = np.zeros((rows, pixels)), np.zeros((rows, pixels))
        self.last: tuple[np.ndarray, np.ndarray] | None = None

    def push(self, rows: np.ndarray, frames: np.ndarray) -> None:
        """rows (K, B) float64 bucket values of the B frames (B, height, width), any float dtype."""
        m, n = len(frames), self.n + len(frames)
        flat = frames.reshape(m, -1)
        if self.gi_on:
            mean_s, mean_f = rows.mean(axis=1), flat.mean(axis=0, dtype=np.float64)
            self.comoment += (rows - mean_s[:, None]) @ (flat - mean_f)  # centered before multiplying
            ds, df = mean_s - self.mean_s, mean_f - self.mean_f
            self.comoment += np.outer(ds, df * (self.n * m / n))
            self.mean_s += ds * (m / n)
            self.mean_f += df * (m / n)
        if self.igi_on:
            if self.last is not None:
                self.diffsum += np.outer(rows[:, 0] - self.last[0], flat[0] - self.last[1])
            if m > 1:
                self.diffsum += np.diff(rows, axis=1) @ np.subtract(flat[1:], flat[:-1], dtype=np.float64)
            self.last = (rows[:, -1].copy(), flat[-1].astype(np.float64))
        self.n = n

    def gi(self, shape: tuple, weights=(1.0,)) -> np.ndarray:
        return (np.asarray(weights) @ self.comoment / self.n).reshape(shape)

    def igi(self, shape: tuple, weights=(1.0,), normalization: str = "unbiased") -> np.ndarray:
        return (np.asarray(weights) @ self.diffsum / _norm_divisor(normalization, self.n - 1)).reshape(shape)


def _correlate(series: MeasurementSeries, gi: bool, igi: bool) -> BlockCorrelator:
    corr = BlockCorrelator(1, series.width * series.height, gi=gi, igi=igi)
    s, step = np.asarray(series.s, dtype=np.float64), block_records(series.width, series.height)
    for a in range(0, len(series), step):
        corr.push(s[None, a : a + step], series.frames[a : a + step])
    return corr


def gi_reconstruct(series: MeasurementSeries) -> np.ndarray:
    """Mean-subtracted correlation image, float64 (height, width)."""
    return _correlate(series, gi=True, igi=False).gi((series.height, series.width))


def igi_reconstruct(series: MeasurementSeries, normalization: str = "unbiased") -> np.ndarray:
    """Consecutive-difference correlation image, float64 (height, width)."""
    return _correlate(series, gi=False, igi=True).igi((series.height, series.width), normalization=normalization)


@dataclass
class BlockRun:
    """A scenario generated and reconstructed one block at a time."""

    scenario: Scenario   # what was simulated, amplitude resolved
    s0: np.ndarray       # clean bucket S0_n
    s: np.ndarray        # bucket S_n, as simulate() gives it
    gi: np.ndarray
    igi: np.ndarray
    curves: np.ndarray   # (len(columns), N): per record, the sum of each requested frame column


def splits(noise: NoiseSpec) -> bool:
    """Whether the bucket is S = S0 + A*u (sinusoid or gaussian_white at A/B), u the unit-amplitude Q_n * coupling."""
    return noise.position in ("A", "B") and noise.waveform.kind in ("sinusoid", "gaussian_white")


def block_pass(scenario: Scenario, amplitude_rel_std: float | None = None, normalization: str = "unbiased",
               columns: tuple = (), gsim: Path | None = None, stops: frozenset = frozenset()):
    """Generate a scenario in clean_blocks, in O(N + block * width * height) memory; return finish(row=scenario).

    finish(row) is the BlockRun of the first row.count records (count, or one of stops: a stop inside a block
    feeds the block's prefix to a copy of the correlator), bit for bit a run's. The one resolver of
    amplitude_rel_std (A = amplitude_rel_std * std(S0), in run.scenario). gsim, in an existing directory, gets
    the .gsim records as each block finishes. Where splits, S0 and u are correlated side by side as G0 + A*G1
    (row may then differ in its absolute amplitude too), so a run and the rerun of its resolved manifest take the
    same arithmetic; other cases correlate S, which clean_bucket_series first resolves where it depends on A.
    """
    noise, sp, n = scenario.noise, scenario.speckle, scenario.count
    split = splits(noise)
    with memory_guard(f"count {n}", n * (2 + len(columns)) * 8):
        s0, s, curves = np.empty(n), np.empty(n), np.empty((len(columns), n))
    if amplitude_rel_std is not None and not split and noise.position != "none" and noise.waveform.kind != "off":
        # S needs A during the pass; the pass makes the same S0, so resolving again at the end keeps this A
        scenario = resolve_amplitude(scenario, clean_bucket_series(scenario), amplitude_rel_std)
    unit = replace(noise, waveform=replace(noise.waveform, amplitude=1.0))
    inject = _injector(replace(scenario, noise=unit) if split else scenario)
    snapshots = {n: (corr := BlockCorrelator(1 + split, sp.width * sp.height))}  # corr is final after the pass
    with (open(gsim, "wb") if gsim is not None else nullcontext()) as fh:
        if fh is not None:
            write_gsim_header(fh, sp.width, sp.height, n)
        for a, frames in clean_blocks(scenario, s0):
            b = a + len(frames)
            # split: s holds u, and finish makes each row's S from its amplitude
            s[a:b] = [inject(k, 0.0 if split else s0[k - 1], frame) for k, frame in enumerate(frames, a + 1)]
            rows = np.stack((s0[a:b], s[a:b])) if split else s[None, a:b]
            for stop in (stop for stop in stops - {n} if a < stop <= b):  # a stop at n is corr itself
                snapshots[stop] = snap = deepcopy(corr)
                snap.push(rows[:, : stop - a], frames[: stop - a])
                snap.mean_f = snap.last = None  # finish reads only n and the sums; kept, they cost sweep-N RSS
            corr.push(rows, frames)
            for curve, column in zip(curves, columns):
                curve[a:b] = frames[:, :, column].sum(axis=1, dtype=np.float64)
            if fh is not None:
                write_gsim_records(fh, s[a:b], frames)

    def finish(row: Scenario = scenario) -> BlockRun:
        m, weights, bucket = row.count, [1.0], s[: row.count]
        if amplitude_rel_std is not None:
            row = resolve_amplitude(row, s0[:m], amplitude_rel_std)
        if split:
            weights.append(row.noise.waveform.amplitude)
            inject = _injector(row)
            bucket = np.array([inject(k, s0[k - 1], None) for k in range(1, m + 1)], dtype=np.float64)
            if gsim is not None:
                patch_gsim_buckets(gsim, bucket, sp.width, sp.height)
        corr, shape = snapshots[m], (sp.height, sp.width)
        return BlockRun(row, s0[:m], bucket, corr.gi(shape, weights), corr.igi(shape, weights, normalization), curves[:, :m])

    return finish


def run_blocks(scenario: Scenario, amplitude_rel_std: float | None = None, normalization: str = "unbiased",
               columns: tuple = (), gsim: Path | None = None) -> BlockRun:
    """The run of a scenario: block_pass with no other stop, finished."""
    return block_pass(scenario, amplitude_rel_std, normalization, columns, gsim)()


class IgiAccumulator:
    """Streaming IGI: a BlockCorrelator fed one record at a time, O(width*height) memory.

    Records must arrive in ordinal order with no gaps (n, n+1, ...); a
    skipped, repeated or reordered record is a ContractError, since it
    would silently pair the wrong frames. Single-writer: one pusher at a
    time. finalize() is a snapshot; pushing more records afterwards and
    finalizing again is allowed.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ContractError("accumulator needs positive frame dimensions")
        self.width, self.height, self.pairs = width, height, 0
        self._prev_n: int | None = None
        self._corr = BlockCorrelator(1, width * height, gi=False)

    def push(self, record: MeasurementRecord) -> None:
        frame = record.frame
        if frame.shape != (self.height, self.width):
            raise ContractError(f"frame {frame.shape} does not fit accumulator {(self.height, self.width)}")
        if self._prev_n is not None:
            if record.n != self._prev_n + 1:
                raise ContractError(f"record {record.n} follows record {self._prev_n}; ordinals must be consecutive")
            self.pairs += 1
        self._corr.push(np.array([[float(record.s)]]), frame[None])
        self._prev_n = record.n

    def finalize(self, normalization: str = "unbiased") -> np.ndarray:
        if self.pairs < 1:
            raise ContractError("finalize needs at least one pushed pair (two records)")
        return self._corr.igi((self.height, self.width), normalization=normalization)


@dataclass
class ValidityReport:
    """Is the noise slow enough, per step, for IGI to cancel it?"""

    signal_delta_rms: float
    noise_delta_bound: float
    ratio: float
    flag: str  # "IGI regime" | "marginal" | "breakdown"

    def to_dict(self) -> dict:
        return asdict(self)


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
        head = fh.read(16)
        if head[:4] != _F64_MAGIC:
            raise PgmFormatError("not a float64 image dump: missing GF64 magic")
        if len(head) < 16:
            raise PgmFormatError("truncated GF64 header")
        version, width, height = struct.unpack("<III", head[4:])
        if version != _F64_VERSION:
            raise PgmFormatError(f"unsupported GF64 version {version}")
        if width == 0 or height == 0:
            raise PgmFormatError(f"GF64 image is {width}x{height}; both must be positive")
        size, need = os.fstat(fh.fileno()).st_size, 16 + width * height * 8
        if size < need:
            raise PgmFormatError(f"truncated GF64 data: {size} of {need} bytes")
        return np.fromfile(fh, dtype="<f8", count=width * height).reshape(height, width)
