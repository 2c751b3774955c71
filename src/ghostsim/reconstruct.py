"""GI and IGI reconstruction.

gi_reconstruct is the classical mean-subtracted correlation

    G(x) = (1/N) sum_n [S_n - <S>] [I_n(x) - <I(x)>]

accumulated as centered co-moments, block by block, so that large DC offsets
on either side cancel before any product is formed. igi_reconstruct
correlates consecutive differences

    G_igi(x) = (1/(2(N-1))) sum_{n=1..N-1} [S_{n+1}-S_n] [I_{n+1}(x)-I_n(x)]

and needs no running means, which is what makes it streamable and immune to
slow additive drift. The "paper-literal" normalization divides by 2N instead
of 2(N-1). Any ordinal range of records reduces to float64 Sums (block_sums)
and adjacent ranges merge exactly (fold): every consumer is a left fold.
Each sum is an elementwise product reduced in a fixed order, never BLAS, so
no CPU or thread count moves a byte. gi_reconstruct and igi_reconstruct sum
blocks on the frame pool through measurement._in_order, in the caller's numpy
error state, and fold them in ordinal order; a block pass sums a block's
pixel slabs there.
"""
from __future__ import annotations

import math
import struct
import threading
from collections import deque
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, replace
from functools import reduce
from itertools import starmap
from pathlib import Path

import numpy as np

from .errors import ContractError, DegenerateInputError, PgmFormatError, memory_guard
from .measurement import MeasurementRecord, MeasurementSeries, NoiseSpec, Scenario, _injector, block_records, clean_blocks
from .measurement import _in_order, _read_header
from .measurement import clean_bucket_series, patch_gsim_buckets, resolve_amplitude, write_gsim_header, write_gsim_records
from .noise import NoiseWaveform, per_step_noise_delta_bound
from .pgm import write_pgm

_SLAB = 131072  # K x records x pixels per slab of block_sums: 512 pixels of a 256-record block at K = 1, 256 at K = 2
# A thread's float64 work space for _slab_sums, the K product slabs of at most _SLAB values in all, kept between calls:
# fresh temporaries this large come from mmap, and faulting their pages in for every slab made a replay's sums up to
# twice as slow.
_SPACE = threading.local()
_F64_MAGIC = b"GF64"
_F64_VERSION = 1
_F64_HEAD = struct.Struct("<4sIII")  # magic, version, width, height

IGI_NORMALIZATIONS = ("unbiased", "paper-literal")


def _norm_divisor(normalization: str, pairs: int) -> float:
    if normalization == "unbiased":
        return 2.0 * pairs
    if normalization == "paper-literal":
        return 2.0 * (pairs + 1)
    raise ContractError(f"unknown normalization {normalization!r}; choose from {IGI_NORMALIZATIONS}")


@dataclass(frozen=True)
class Sums:
    """GI and IGI sums of K bucket rows against the frames of n consecutive records; Sums(0) is the empty range."""

    n: int  # records; a half not asked for keeps its scalar 0.0 or None. Both halves are linear in the rows.
    mean_s: np.ndarray | float = 0.0    # (K,) row means
    mean_f: np.ndarray | float = 0.0    # (P,) frame means, float64
    comoment: np.ndarray | float = 0.0  # (K, P) sum of (rows - mean_s)(frames - mean_f)
    diffsum: np.ndarray | float = 0.0   # (K, P) sum of consecutive row differences times frame differences
    first: tuple | None = None          # (rows, frame) of the first record, float64 copies
    last: tuple | None = None           # and of the last

    def gi(self, shape: tuple, weights=(1.0,)) -> np.ndarray:
        return (_weigh(weights, self.comoment) / self.n).reshape(shape)

    def igi(self, shape: tuple, weights=(1.0,), normalization: str = "unbiased") -> np.ndarray:
        return (_weigh(weights, self.diffsum) / _norm_divisor(normalization, self.n - 1)).reshape(shape)


def _weigh(weights, sums: np.ndarray) -> np.ndarray:
    """weights[0] * sums[0] + weights[1] * sums[1] + ..., added in that order: c0 + A * c1 for weights [1, A]."""
    return np.add.reduce(np.asarray(weights)[:, None] * sums, axis=0)


def _record_sums(products: np.ndarray) -> np.ndarray:
    """products (..., m, width) added over m record by record: reduce would add a one-pixel-wide slab's pairwise."""
    if products.shape[-1] > 1:
        return np.add.reduce(products, axis=-2)
    return np.add.accumulate(products, axis=-2)[..., -1, :]


def _times_rows(rows: np.ndarray, products: np.ndarray, center=None) -> None:
    """products[k] = rows[k] * (products[0] - center) for bucket rows (K, m, 1), in place: row 0 is multiplied last."""
    with np.errstate():  # the caller's error state, and its buffer size back on exit
        # numpy 2.4's default 8192-value buffers copy a broadcast (m, 1) or (width,) operand: about half the speed
        np.setbufsize(16)
        if center is not None:
            products[0] -= center
        np.multiply(rows[1:], products[0], out=products[1:])
        products[0] *= rows[0]


def _slab_sums(flat: np.ndarray, cut: slice, d_rows, c_rows, mean_f, comoment, diffsum) -> None:
    """Fill pixels cut in place: bucket differences d_rows (K, B - 1, 1) times frame differences into diffsum, centered
    buckets c_rows (K, B, 1) times centered frames into comoment (None: not asked), each added record by record."""
    k, m, width = len(c_rows if d_rows is None else d_rows), len(flat), cut.stop - cut.start
    space = getattr(_SPACE, "array", np.empty(0))
    if space.size < k * m * width:
        space = _SPACE.array = np.empty(k * m * width)
    products, part = space[: k * m * width].reshape(k, m, width), flat[:, cut]
    if d_rows is not None:
        steps = products[0, 1:]
        steps[:] = part[:-1]  # then subtracted in place: faster than one subtract out of place
        np.subtract(part[1:], steps, out=steps)
        _times_rows(d_rows, products[:, 1:])
        diffsum[:, cut] = _record_sums(products[:, 1:])
    if c_rows is not None:
        products[0] = part
        mean = mean_f[cut] = _record_sums(products[0]) / m
        _times_rows(c_rows, products, mean)
        comoment[:, cut] = _record_sums(products)


def block_sums(rows: np.ndarray, frames: np.ndarray, gi: bool = True, igi: bool = True, each=starmap) -> Sums:
    """The Sums of one block alone: rows (K, B) float64 bucket values of the B frames (B, height, width), any float dtype.

    each(_slab_sums, args) sums even pixel slabs of at most _SLAB // (K * B) pixels (one at least), the bytes the same
    whatever the slabs: starmap in this thread, or measurement._in_order on the pool. Each pixel adds its records in
    ordinal order, in a slab one pixel wide (a one-pixel frame) too."""
    m, flat = len(frames), frames.reshape(len(frames), -1)
    k, p = len(rows), flat.shape[1]
    mean_s = mean_f = comoment = diffsum = 0.0
    first = last = c_rows = d_rows = None
    if gi:
        mean_s, mean_f, comoment = rows.mean(axis=1), np.empty(p), np.empty((k, p))
        c_rows = (rows - mean_s[:, None])[:, :, None]
    if igi:
        first = (rows[:, 0].copy(), flat[0].astype(np.float64))  # a view would keep the block alive
        last = first if m == 1 else (rows[:, -1].copy(), flat[-1].astype(np.float64))
        if m > 1:
            diffsum, d_rows = np.empty((k, p)), np.diff(rows)[:, :, None]
    if c_rows is not None or d_rows is not None:  # not for a one-record push of IgiAccumulator
        slabs = -(-p // max(1, _SLAB // (k * m)))  # even cuts of at most _SLAB // (k * m) pixels, one at least
        cuts = (slice(p * i // slabs, p * (i + 1) // slabs) for i in range(slabs))
        deque(each(_slab_sums, ((flat, cut, d_rows, c_rows, mean_f, comoment, diffsum) for cut in cuts)), maxlen=0)
    return Sums(m, mean_s, mean_f, comoment, diffsum, first, last)


def fold(a: Sums, b: Sums) -> Sums:
    """The Sums of range a followed by range b. GI: C = C_a + C_b + (n_a n_b / n)(s_b - s_a)(I_b - I_a) over the
    range means (Chan, Golub & LeVeque 1979; Pebay 2008). IGI: the pair (last of a, first of b), then b's own sum."""
    n, mean_s, mean_f, comoment, diffsum = a.n + b.n, a.mean_s, a.mean_f, a.comoment, a.diffsum
    if np.ndim(b.comoment):
        ds, df = b.mean_s - a.mean_s, b.mean_f - a.mean_f
        comoment = a.comoment + b.comoment + np.outer(ds, df * (a.n * b.n / n))
        mean_s, mean_f = a.mean_s + ds * (b.n / n), a.mean_f + df * (b.n / n)
    if a.last is not None and b.first is not None:
        diffsum = diffsum + np.outer(b.first[0] - a.last[0], b.first[1] - a.last[1])
    if np.ndim(b.diffsum):
        diffsum = diffsum + b.diffsum
    return Sums(n, mean_s, mean_f, comoment, diffsum, a.first or b.first, b.last or a.last)


def _correlate(series: MeasurementSeries, gi: bool, igi: bool) -> Sums:
    """The series' Sums: measurement._in_order sums its blocks on the pool, each block's slabs inline in its pool thread
    (no pool call waits on the pool), and this thread folds them in ordinal order: no thread count moves a byte."""
    s, step = np.asarray(series.s, dtype=np.float64), block_records(series.width, series.height)
    blocks = ((s[None, a : a + step], series.frames[a : a + step], gi, igi) for a in range(0, len(series), step))
    with closing(_in_order(block_sums, blocks)) as parts:
        return reduce(fold, parts, Sums(0))


def gi_reconstruct(series: MeasurementSeries) -> np.ndarray:
    """Mean-subtracted correlation image, float64 (height, width), the same bytes on any host and any pool size."""
    return _correlate(series, gi=True, igi=False).gi((series.height, series.width))


def igi_reconstruct(series: MeasurementSeries, normalization: str = "unbiased") -> np.ndarray:
    """Consecutive-difference correlation image, float64 (height, width)."""
    return _correlate(series, gi=False, igi=True).igi((series.height, series.width), normalization=normalization)


@dataclass
class BlockRun:
    """A scenario generated and reconstructed one block at a time."""

    scenario: Scenario   # what was simulated, amplitude resolved
    s0: np.ndarray       # clean bucket S0_n
    s: np.ndarray | None  # bucket S_n, as simulate() gives it; None from finish(row, bucket=False) where S splits
    gi: np.ndarray
    igi: np.ndarray
    curves: np.ndarray   # (len(columns), N): per record, the sum of each requested frame column


def splits(noise: NoiseSpec) -> bool:
    """Whether the bucket is S = S0 + A*u (sinusoid or gaussian_white at A/B), u the unit-amplitude Q_n * coupling."""
    return noise.position in ("A", "B") and noise.waveform.kind in ("sinusoid", "gaussian_white")


def pass_key(row: Scenario, amplitude_rel_std: float | None = None) -> str:
    """The one rule for which rows may share a block_pass: rows of one key. It is row's digest with the count set aside,
    and the amplitude too where the bucket splits (finish weighs each row's A in) or is relative (finish resolves it).
    A relative amplitude on a bucket that does not split keeps the count: S needs A during the pass, from all its S0."""
    split, relative = splits(row.noise), amplitude_rel_std is not None
    return row.digest(count=relative and not split, amplitude=not (split or relative))


def block_pass(rows: list, amplitude_rel_std: float | None = None, normalization: str = "unbiased",
               columns: tuple = (), gsim: Path | None = None):
    """Generate the longest of rows in clean_blocks, in O(N + block * width * height) memory, and return finish.

    rows, the Scenarios the pass serves, share one pass_key, else a ContractError before anything is allocated.
    finish(row, bucket=True) is the BlockRun of the first row.count records of a row of the pass (its key and one of its
    counts, else a ContractError), bit for bit a run's: a count inside a block is the running Sums folded with the Sums
    of the block's prefix. finish resolves amplitude_rel_std (A = amplitude_rel_std * std(S0[:count]), in
    run.scenario). gsim, in an existing directory, gets the .gsim records as each block finishes. Where splits, S0 and
    u are correlated side by side as G0 + A*G1 (a run and the rerun of its resolved manifest take the same arithmetic),
    and a row's S is built (and patched into gsim) only given bucket. Other cases correlate S; a relative amplitude on
    an active bucket first resolves A from a pre-pass of S0 alone (clean_bucket_series).
    A block's pixel slabs are summed on the pool, which is idle between blocks (block_sums through _in_order).
    """
    keys = {pass_key(row, amplitude_rel_std) for row in rows}
    if len(keys) != 1:
        raise ContractError(f"the rows of one block pass share one pass_key; these have {len(keys)}")
    scenario, counts = max(rows, key=lambda row: row.count), {row.count for row in rows}
    noise, sp, n, split = scenario.noise, scenario.speckle, scenario.count, splits(scenario.noise)
    with memory_guard(f"count {n}", n * (2 + len(columns)) * 8):
        s0, s, curves = np.empty(n), np.empty(n), np.empty((len(columns), n))
    if amplitude_rel_std is not None and not split and noise.position != "none" and noise.waveform.kind != "off":
        scenario = resolve_amplitude(scenario, clean_bucket_series(scenario), amplitude_rel_std)  # the A finish resolves again
    unit = replace(noise, waveform=replace(noise.waveform, amplitude=1.0))
    inject = _injector(replace(scenario, noise=unit) if split else scenario)
    sums, stopped = Sums(0), {}
    with (open(gsim, "wb") if gsim is not None else nullcontext()) as fh:
        if fh is not None:
            write_gsim_header(fh, sp.width, sp.height, n)
        for a, frames in clean_blocks(scenario, s0):
            b = a + len(frames)
            # split: s holds u, and finish makes each row's S from its amplitude
            s[a:b] = [inject(k, 0.0 if split else s0[k - 1], frame) for k, frame in enumerate(frames, a + 1)]
            buckets = np.stack((s0[a:b], s[a:b])) if split else s[None, a:b]
            for stop in (stop for stop in counts - {n} if a < stop <= b):
                stopped[stop] = fold(sums, block_sums(buckets[:, : stop - a], frames[: stop - a], each=_in_order))
            sums = fold(sums, block_sums(buckets, frames, each=_in_order))
            for curve, column in zip(curves, columns):
                curve[a:b] = frames[:, :, column].sum(axis=1, dtype=np.float64)
            if fh is not None:
                write_gsim_records(fh, s[a:b], frames)
    stopped[n] = sums

    def finish(row: Scenario, bucket: bool = True) -> BlockRun:
        m, weights, s_row = row.count, [1.0], s[: row.count]
        if m not in stopped or pass_key(row, amplitude_rel_std) not in keys:
            raise ContractError(f"this row is not of the pass: its rows share one pass_key and end at {sorted(stopped)}")
        if amplitude_rel_std is not None:
            row = resolve_amplitude(row, s0[:m], amplitude_rel_std)
        if split:
            weights.append(row.noise.waveform.amplitude)
            inject, s_row = _injector(row), None
        if split and bucket:
            s_row = np.array([inject(k, s0[k - 1], None) for k in range(1, m + 1)], dtype=np.float64)
            if gsim is not None:
                patch_gsim_buckets(gsim, s_row, sp.width, sp.height)
        sums, shape = stopped[m], (sp.height, sp.width)
        return BlockRun(row, s0[:m], s_row, sums.gi(shape, weights), sums.igi(shape, weights, normalization), curves[:, :m])

    return finish


def run_blocks(scenario: Scenario, amplitude_rel_std: float | None = None, normalization: str = "unbiased",
               columns: tuple = (), gsim: Path | None = None) -> BlockRun:
    """The run of a scenario: the block pass of it alone, finished."""
    return block_pass([scenario], amplitude_rel_std, normalization, columns, gsim)(scenario)


class IgiAccumulator:
    """Streaming IGI: a fold of one-record Sums, IGI half only, O(width*height) memory.

    Records must arrive in ordinal order with no gaps (n, n+1, ...); a
    skipped, repeated or reordered record is a ContractError, since it
    would silently pair the wrong frames. Single-writer: one pusher at a
    time. finalize() is a snapshot; pushing more records afterwards and
    finalizing again is allowed.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ContractError("accumulator needs positive frame dimensions")
        self.width, self.height, self._prev_n, self._sums = width, height, None, Sums(0)  # _prev_n: last ordinal pushed

    @property
    def pairs(self) -> int:
        return max(self._sums.n - 1, 0)

    def push(self, record: MeasurementRecord) -> None:
        frame = record.frame
        if frame.shape != (self.height, self.width):
            raise ContractError(f"frame {frame.shape} does not fit accumulator {(self.height, self.width)}")
        if self._prev_n is not None and record.n != self._prev_n + 1:
            raise ContractError(f"record {record.n} follows record {self._prev_n}; ordinals must be consecutive")
        self._sums = fold(self._sums, block_sums(np.array([[float(record.s)]]), frame[None], gi=False))
        self._prev_n = record.n

    def finalize(self, normalization: str = "unbiased") -> np.ndarray:
        if self.pairs < 1:
            raise ContractError("finalize needs at least one pushed pair (two records)")
        return self._sums.igi((self.height, self.width), normalization=normalization)


@dataclass
class ValidityReport:
    """Is the noise slow enough, per step, for IGI to cancel it?"""

    signal_delta_rms: float
    noise_delta_bound: float
    ratio: float
    flag: str  # "IGI regime" | "marginal" | "breakdown"

    def to_dict(self) -> dict:
        return asdict(self)


def validity_diagnostic(clean_bucket: np.ndarray, waveform: NoiseWaveform, coupling: float = 1.0) -> ValidityReport:
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
    flag = "IGI regime" if ratio < 0.1 else "marginal" if ratio < 1.0 else "breakdown"
    return ValidityReport(signal_delta_rms=rms, noise_delta_bound=bound, ratio=ratio, flag=flag)


def _image(image) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ContractError("reconstruction image must be 2-D")
    return img


def save_recon_pgm(image: np.ndarray, path) -> None:
    """16-bit PGM preview; min/max of the affine mapping go to <path>.txt."""
    img = _image(image)
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
    img = _image(image)
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(_F64_HEAD.pack(_F64_MAGIC, _F64_VERSION, width, height))
        fh.write(img.astype("<f8").tobytes())


def load_f64(path) -> np.ndarray:
    with open(path, "rb") as fh:
        names = ("float64 image dump", "GF64", "GF64 data")
        width, height = _read_header(fh, _F64_HEAD, _F64_MAGIC, _F64_VERSION, names, lambda w, h: w * h * 8)
        if width == 0 or height == 0:
            raise PgmFormatError(f"GF64 image is {width}x{height}; both must be positive")
        return np.fromfile(fh, dtype="<f8", count=width * height).reshape(height, width)
