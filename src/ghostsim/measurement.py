"""Measurement simulation: bucket/reference series with noise injection.

Injection positions (clean frame F_n, clean bucket S0_n = sum F_n*T):

  none  S_n = S0_n,                          I_n = F_n
  A     S_n = S0_n + Q_n * sum(T)/(w*h),     I_n = F_n      (noise through the object arm)
  B     S_n = S0_n + Q_n,                    I_n = F_n      (noise straight onto the bucket)
  C     S_n = S0_n,                          I_n = F_n + Q_n * weights(x)

clean_blocks makes each frame once, in ordinal blocks of about 8 MB, with its
S0_n; one position switch (_injector) then adds Q_n. block_pass (in
reconstruct: run_blocks and sweeps) holds one block at a time and alone resolves
amplitude_rel_std; simulate() keeps every frame; simulate_stream() yields one record at a time.
Off the calling thread, _POOL makes frames and their S0_n in place (_fill_item) and sums gi_reconstruct's and
igi_reconstruct's blocks; those two, a block pass and the scoring of its images hold OpenBLAS at one thread (_ONE_BLAS_THREAD).
All are pure functions of the scenario, so runs replay bit-identically, whatever the pool's or BLAS's thread count.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product, repeat
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, ContractError, PgmFormatError, memory_guard
from .noise import NoiseWaveform, SpatialNoiseMask, noise_value
from .scene import bucket_signal, bucket_signals  # noqa: F401  perfbench patches bucket_signal here
from .speckle import SpeckleParams, fill_frames, generate_frame  # noqa: F401  perfbench patches generate_frame here

POSITIONS = ("none", "A", "B", "C")

_GSIM_MAGIC = b"GSIM"
_GSIM_VERSION = 1
_BLOCK = 256  # records per block at 64x64 and below: 8 MB of f64 frames
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool() -> None:
    """This process's frame pool, one thread per CPU it may run on; made anew in a forked child, which has no threads."""
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS)


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


@functools.cache
def _openblas() -> tuple | None:
    """(get_num_threads, set_num_threads) of the OpenBLAS mapped into this process, or None (non-Linux, MKL, ...)."""
    try:
        with open("/proc/self/maps") as fh:
            handles = [ctypes.CDLL(lib) for lib in sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})]
    except OSError:
        return None
    for handle, prefix, suffix in product(handles, ("scipy_openblas", "openblas"), ("64_", "")):
        get, put = (getattr(handle, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any block pass, replay or scoring runs: the first entry saves the caller's count,
    the last exit restores it. A pass's GEMMs are too small to gain from a second thread, whose busy-wait takes a core
    from _POOL, and a dot product split over two threads sums in another order than on one."""

    def __init__(self) -> None:
        self._lock, self._depth, self._saved = threading.Lock(), 0, 1

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0 and (blas := _openblas()):
                self._saved = blas[0]()
                blas[1](1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and (blas := _openblas()):
                blas[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


@dataclass(frozen=True)
class NoiseSpec:
    """Temporal waveform plus where it enters the measurement."""

    waveform: NoiseWaveform = NoiseWaveform()
    position: str = "none"
    spatial: SpatialNoiseMask | None = None

    def __post_init__(self) -> None:
        if self.position not in POSITIONS:
            raise ConfigurationError(f"unknown position {self.position!r}; choose from {POSITIONS}", field="position")
        if self.position == "C" and self.spatial is None:
            raise ConfigurationError("position C requires a SpatialNoiseMask", field="position")


@dataclass
class Scenario:
    speckle: SpeckleParams
    object_mask: np.ndarray
    count: int
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self) -> None:
        mask = np.asarray(self.object_mask, dtype=np.float64)
        grid = (self.speckle.height, self.speckle.width)
        if mask.shape != grid:
            raise ConfigurationError(f"object mask {mask.shape} does not match speckle grid {grid}", field="object_mask")
        if mask.min() < 0.0 or mask.max() > 1.0:
            raise ConfigurationError("object mask values must lie in [0, 1]", field="object_mask")
        weights = getattr(self.noise.spatial, "custom_weights", None)  # set for the custom region only
        if weights is not None and weights.shape != grid:
            message = f"custom_weights {weights.shape} do not match speckle grid {grid}"
            raise ConfigurationError(message, field="noise.spatial.custom_weights")
        if self.count < 2:
            raise ConfigurationError(f"count must be >= 2, got {self.count}", field="count")
        wf = self.noise.waveform  # a count past numpy's index range fails later, with the GB it needs
        if wf.kind == "sinusoid" and self.count < 2**63 and not np.isfinite(wf.angle(self.count)):
            raise ConfigurationError("sinusoid angle 2*pi*f*t + phase overflows by the last step", field="noise.frequency")
        self.object_mask = mask

    @property
    def bucket_coupling(self) -> float:
        """Factor Q_n reaches the bucket with: sum(T)/(w*h) through the object arm (A), else 1."""
        return float(self.object_mask.sum() / self.object_mask.size) if self.noise.position == "A" else 1.0

    def digest(self) -> str:
        """sha256 over every parameter that affects the record values."""
        h = hashlib.sha256()
        sp = self.speckle
        wf = self.noise.waveform
        h.update(repr((sp.width, sp.height, float(sp.grain_radius), float(sp.mean_intensity), sp.seed)).encode())
        h.update(repr((self.count, self.noise.position)).encode())
        h.update(repr((wf.kind, float(wf.amplitude), float(wf.frequency), float(wf.phase), float(wf.sample_rate), wf.seed)).encode())
        if self.noise.spatial is not None:
            h.update(self.noise.spatial.region.encode())
            if self.noise.spatial.region == "custom":
                h.update(np.ascontiguousarray(self.noise.spatial.custom_weights).tobytes())
        h.update(np.ascontiguousarray(self.object_mask).tobytes())
        return h.hexdigest()


@dataclass
class MeasurementRecord:
    n: int              # 1-based ordinal
    s: float            # bucket value
    frame: np.ndarray   # reference intensity (height, width)


@dataclass
class MeasurementSeries:
    """The records of a run, as a .gsim stores them: s[i] and frames[i] belong to ordinal n = i + 1."""

    s: np.ndarray              # (N,) float64
    frames: np.ndarray         # (N, height, width): float64 when simulated, float32 when loaded

    def __post_init__(self) -> None:
        if self.frames.ndim != 3 or len(self.s) != len(self.frames) or 0 in self.frames.shape[1:]:
            raise ContractError("series needs s (N,) and frames (N, height, width), height and width >= 1")
        if len(self.s) < 2:
            raise ContractError("series must hold at least 2 records")

    def __len__(self) -> int:
        return len(self.s)

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    def records(self) -> Iterator[MeasurementRecord]:
        for i in range(len(self.s)):
            yield MeasurementRecord(i + 1, float(self.s[i]), self.frames[i])


def _injector(scenario: Scenario):
    """Bind the position switch: (n, S0_n, frame) -> S_n; position C adds to frame in place."""
    position = scenario.noise.position
    waveform = scenario.noise.waveform
    coupling = scenario.bucket_coupling
    if position == "C":
        width, height = scenario.speckle.width, scenario.speckle.height
        with memory_guard(f"a {width}x{height} weight grid", width * height * 8):
            weights = scenario.noise.spatial.weights(width, height)

    def inject(n: int, s0: float, frame: np.ndarray) -> float:
        if position == "none":
            return s0
        q = noise_value(waveform, n)
        if position == "C":
            frame += q * weights
            return s0
        return s0 + q * coupling  # A: coupling sum(T)/(w*h); B: coupling 1

    return inject


def block_records(width: int, height: int) -> int:
    """Records per frame block, GI/IGI step and .gsim write: _BLOCK, fewer above 64x64 to keep f64 frames near 8 MB."""
    return max(1, min(_BLOCK, _BLOCK * 4096 // (width * height)))


def item_frames(width: int, height: int, pixels: int) -> int:
    """Frames per pool item of about `pixels` pixels, at least one. pocketfft keeps the GIL for one 64x64 frame, not for
    a batch of four, so a stream takes items of 16384 pixels: it holds O(_WORKERS * item) in flight. A block pass takes
    items of 65536 pixels, 16 frames at 64x64: fewer futures and batches for the GIL, and a thread's complex scratch
    stays at 1 MB, as a 256x256 frame needs anyway."""
    return max(1, pixels // (width * height))


def _fill_item(sp: SpeckleParams, first: int, frames: np.ndarray, mask: np.ndarray, s0: np.ndarray) -> tuple:
    """A pool item: clean frames first, first + 1, ... into frames and their buckets S0 into s0, in place; return both."""
    s0[:] = bucket_signals(fill_frames(sp, first, frames), mask)
    return frames, s0


def clean_blocks(scenario: Scenario, s0: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, frames) per block of clean float64 frames, in ordinal order, in one reused buffer; set s0[start:].

    _POOL fills a block and its S0 in place, in items of about 65536 pixels; this thread raises an item's error."""
    sp, n = scenario.speckle, scenario.count
    step, item = block_records(sp.width, sp.height), item_frames(sp.width, sp.height, 65536)
    buffer = np.empty((min(step, n), sp.height, sp.width))
    for a in range(0, n, step):
        frames = buffer[: min(step, n - a)]
        cuts = range(item, len(frames), item)
        firsts, s0_parts = range(a + 1, a + len(frames) + 1, item), np.split(s0[a : a + len(frames)], cuts)
        for _ in _POOL.map(_fill_item, repeat(sp), firsts, np.split(frames, cuts), repeat(scenario.object_mask), s0_parts):
            pass  # wait for every item, raising the first error
        yield a, frames


def resolve_amplitude(scenario: Scenario, s0: np.ndarray, amplitude_rel_std: float) -> Scenario:
    """The scenario with its waveform amplitude set to amplitude_rel_std * std(S0)."""
    sigma = float(s0.std())
    if sigma == 0.0:
        raise ConfigurationError("clean bucket series is constant; amplitude_rel_std cannot be resolved")
    try:
        waveform = replace(scenario.noise.waveform, amplitude=float(amplitude_rel_std) * sigma)
    except ConfigurationError as exc:  # a Poisson mean past numpy's largest, say
        raise ConfigurationError(f"noise.amplitude_rel_std {amplitude_rel_std!r}: {exc}", field="noise.amplitude_rel_std") from exc
    return replace(scenario, noise=replace(scenario.noise, waveform=waveform))


def simulate(scenario: Scenario) -> MeasurementSeries:
    """Run the full scenario into memory, generating each frame once."""
    sp, n = scenario.speckle, scenario.count
    with memory_guard(f"count {n} at {sp.width}x{sp.height}", n * (sp.width * sp.height + 2) * 8):  # frames, S0, S
        s0, frames = np.empty(n), np.empty((n, sp.height, sp.width))
    for a, block in clean_blocks(scenario, s0):
        frames[a : a + len(block)] = block
    inject = _injector(scenario)
    s = np.array([inject(i + 1, s0[i], frames[i]) for i in range(n)], dtype=np.float64)
    return MeasurementSeries(s=s, frames=frames)


def simulate_stream(scenario: Scenario) -> Iterator[MeasurementRecord]:
    """Yield records one at a time, in O(_WORKERS * item * width * height) memory: while an item's records are out,
    _POOL makes the next _WORKERS items (frames and S0, as in clean_blocks). Closing cancels those not started."""
    sp, n, inject = scenario.speckle, scenario.count, _injector(scenario)
    item = item_frames(sp.width, sp.height, 16384)
    starts, ahead = range(1, n + 1, item), []
    try:
        for i, first in enumerate(starts):
            for k in starts[i + len(ahead) : i + 1 + _WORKERS]:
                m = min(item, n + 1 - k)
                frames = np.empty((m, sp.height, sp.width))
                ahead.append(_POOL.submit(_fill_item, sp, k, frames, scenario.object_mask, np.empty(m)))
            frames, s0 = ahead.pop(0).result()
            for k, (frame, s) in enumerate(zip(frames, s0.tolist()), first):
                yield MeasurementRecord(k, inject(k, s, frame), frame)
    finally:
        for future in ahead:
            future.cancel()


def clean_bucket_series(scenario: Scenario) -> np.ndarray:
    """S0_n alone from clean_blocks, frames not kept; run_blocks returns the same as run.s0."""
    s0 = np.empty(scenario.count)
    for _ in clean_blocks(scenario, s0):
        pass
    return s0


def column_curve(series: MeasurementSeries, column: int) -> np.ndarray:
    """Per-record sum of one reference column (a slit-plane photocurrent)."""
    if not 0 <= column < series.width:
        raise ContractError(f"column {column} outside 0..{series.width - 1}")
    return series.frames[:, :, column].sum(axis=1, dtype=np.float64)


def _gsim_record(width: int, height: int) -> np.dtype:
    """One .gsim record: the f64 bucket value, then the f32 frame, row-major, little-endian."""
    return np.dtype([("s", "<f8"), ("frame", "<f4", (height, width))])


def write_gsim_header(fh, width: int, height: int, count: int) -> None:
    fh.write(_GSIM_MAGIC + struct.pack("<IIII", _GSIM_VERSION, width, height, count))


def write_gsim_records(fh, s: np.ndarray, frames: np.ndarray) -> None:
    """Append one _gsim_record per (s, frame) pair."""
    np.rec.fromarrays([s, frames], dtype=_gsim_record(frames.shape[2], frames.shape[1])).tofile(fh)


def patch_gsim_buckets(path, s: np.ndarray, width: int, height: int) -> None:
    """Overwrite the s field of every record of a written container in place; the frames are not read."""
    size = _gsim_record(width, height).itemsize
    with open(path, "r+b") as fh:
        for i, value in enumerate(s):
            fh.seek(20 + i * size)
            fh.write(struct.pack("<d", value))


def save_series(series: MeasurementSeries, path) -> None:
    """Binary container: GSIM header, then one _gsim_record per ordinal, written one block_records block at a time."""
    with open(path, "wb") as fh:
        write_gsim_header(fh, series.width, series.height, len(series))
        step = block_records(series.width, series.height)
        for a in range(0, len(series), step):
            write_gsim_records(fh, series.s[a : a + step], series.frames[a : a + step])


def load_series(path) -> MeasurementSeries:
    """One np.fromfile read; frames stay float32, as stored. Sizes are checked first: a dtype must fit a C int."""
    with open(path, "rb") as fh:
        head = fh.read(20)
        if head[:4] != _GSIM_MAGIC:
            raise PgmFormatError("not a measurement container: missing GSIM magic")
        if len(head) < 20:
            raise PgmFormatError("truncated container header")
        version, width, height, count = struct.unpack("<IIII", head[4:])
        if version != _GSIM_VERSION:
            raise PgmFormatError(f"unsupported container version {version}")
        size, need = os.fstat(fh.fileno()).st_size, 20 + count * (8 + width * height * 4)
        if size < need:
            raise PgmFormatError(f"truncated container: {size} of {need} bytes")
        if count < 2 or width == 0 or height == 0:
            raise PgmFormatError(f"container holds {count} records of {width}x{height}; a series needs 2, at least 1x1")
        records = np.fromfile(fh, dtype=_gsim_record(width, height), count=count)
    return MeasurementSeries(s=records["s"], frames=records["frame"])


def write_curve_csv(values: np.ndarray, path) -> None:
    """Two columns, n (1-based) and value, with full float precision."""
    with open(path, "w", newline="\n") as fh:
        fh.write("n,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i + 1},{float(v)!r}\n")
