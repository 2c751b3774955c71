"""Measurement simulation: bucket/reference series with noise injection.

Injection positions (clean frame F_n, clean bucket S0_n = sum F_n*T):

  none  S_n = S0_n,                          I_n = F_n
  A     S_n = S0_n + Q_n * sum(T)/(w*h),     I_n = F_n      (noise through the object arm)
  B     S_n = S0_n + Q_n,                    I_n = F_n      (noise straight onto the bucket)
  C     S_n = S0_n,                          I_n = F_n + Q_n * weights(x)

clean_blocks makes each frame once, in ordinal blocks of about 8 MB, with its
S0_n; one position switch (_injector) then adds Q_n. reconstruct.block_pass serves
the rows of one pass_key (a run's one row, or a sweep's) one block at a time, and its finish alone
resolves amplitude_rel_std; simulate() keeps every frame; simulate_stream() yields one record at a time.
Off the calling thread, _POOL makes frames and their S0_n (_fill_item) and sums a block pass's pixel slabs and a replay's
blocks, all through _in_order: in ordinal order, at most 2 * _WORKERS calls ahead, in the caller's numpy error state.
All are pure functions of the scenario and no sum calls BLAS, so no pool size or BLAS setting moves a byte of a run.
"""
from __future__ import annotations

import contextvars
import hashlib
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigurationError, ContractError, PgmFormatError, memory_guard
from .noise import NoiseWaveform, SpatialNoiseMask, noise_value
from .scene import bucket_signal, bucket_signals, unit_grid  # noqa: F401  perfbench patches bucket_signal here
from .speckle import SpeckleParams, fill_frames, generate_frame  # noqa: F401  perfbench patches generate_frame here

POSITIONS = ("none", "A", "B", "C")

_GSIM_MAGIC = b"GSIM"
_GSIM_VERSION = 1
_GSIM_HEAD = struct.Struct("<4sIIII")  # magic, version, width, height, count
_BLOCK = 256  # records per block at 64x64 and below: 8 MB of f64 frames
_ITEM = 65536  # pixels per pool item: 16 frames at 64x64, one from 256x256 up (a thread's FFT scratch: 1 MB up to 256x256)
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool() -> None:
    """This process's frame pool, one thread per CPU it may run on; made anew in a forked child, which has no threads."""
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS)


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _in_order(fn: Callable, args: Iterable[tuple]) -> Iterator:
    """Yield fn(*a) for each a of args, in order, run on _POOL in the caller's context (numpy's error state with it), at
    most 2 * _WORKERS calls past the one waited on. The earliest call's error is raised in its place; closing cancels
    the calls not started. Nothing else submits to _POOL."""
    pool, pending = _POOL, deque()  # looked up per call, as a forked child has a pool of its own
    try:
        for a in args:
            # a copy per call, as of its submission: one Context cannot be entered by two threads at once
            pending.append(pool.submit(contextvars.copy_context().run, fn, *a))
            if len(pending) > 2 * _WORKERS:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


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
        mask = unit_grid(self.object_mask, "object mask", ConfigurationError, field="object_mask")
        grid = (self.speckle.height, self.speckle.width)
        if mask.shape != grid:
            raise ConfigurationError(f"object mask {mask.shape} does not match speckle grid {grid}", field="object_mask")
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

    def digest(self, count: bool = True, amplitude: bool = True) -> str:
        """sha256 over every parameter that affects the record values; reconstruct.pass_key sets count or amplitude aside."""
        h = hashlib.sha256()
        sp = self.speckle
        wf = self.noise.waveform
        h.update(repr((sp.width, sp.height, float(sp.grain_radius), float(sp.mean_intensity), sp.seed)).encode())
        h.update(repr((self.count if count else None, self.noise.position)).encode())
        a = float(wf.amplitude) if amplitude else None
        h.update(repr((wf.kind, a, float(wf.frequency), float(wf.phase), float(wf.sample_rate), wf.seed)).encode())
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


def _fill_item(sp: SpeckleParams, first: int, frames: np.ndarray, mask: np.ndarray, s0: np.ndarray) -> tuple:
    """A pool item: clean frames first, first + 1, ... into frames and their buckets S0 into s0, in place; return both."""
    s0[:] = bucket_signals(fill_frames(sp, first, frames), mask)
    return frames, s0


def clean_blocks(scenario: Scenario, s0: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, frames) per block of clean float64 frames, in ordinal order, in one reused buffer; set s0[start:].

    _POOL fills a block and its S0 in place, in items (_in_order); this thread raises an item's error."""
    sp, n, mask = scenario.speckle, scenario.count, scenario.object_mask
    step, item = block_records(sp.width, sp.height), max(1, _ITEM // (sp.width * sp.height))
    buffer = np.empty((min(step, n), sp.height, sp.width))
    for a in range(0, n, step):
        frames = buffer[: min(step, n - a)]
        cuts = range(item, len(frames), item)
        parts = zip(range(a + 1, a + len(frames) + 1, item), np.split(frames, cuts), np.split(s0[a : a + len(frames)], cuts))
        with closing(_in_order(_fill_item, ((sp, k, f, mask, s) for k, f, s in parts))) as items:
            deque(items, maxlen=0)  # wait for every item of the block before it is read
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
    _POOL makes up to 2 * _WORKERS items past it (frames and S0, as in clean_blocks). Closing cancels those not started."""
    sp, n, inject = scenario.speckle, scenario.count, _injector(scenario)
    item = max(1, _ITEM // (sp.width * sp.height))
    sizes = ((k, min(item, n + 1 - k)) for k in range(1, n + 1, item))
    items = ((sp, k, np.empty((m, sp.height, sp.width)), scenario.object_mask, np.empty(m)) for k, m in sizes)
    with closing(_in_order(_fill_item, items)) as filled:
        for k, (frame, s) in enumerate(chain.from_iterable(zip(frames, s0.tolist()) for frames, s0 in filled), 1):
            yield MeasurementRecord(k, inject(k, s, frame), frame)


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
    fh.write(_GSIM_HEAD.pack(_GSIM_MAGIC, _GSIM_VERSION, width, height, count))


def write_gsim_records(fh, s: np.ndarray, frames: np.ndarray) -> None:
    """Append one _gsim_record per (s, frame) pair."""
    np.rec.fromarrays([s, frames], dtype=_gsim_record(frames.shape[2], frames.shape[1])).tofile(fh)


def patch_gsim_buckets(path, s: np.ndarray, width: int, height: int) -> None:
    """Overwrite the s field of every record of a written container in place; the frames are not read."""
    size = _gsim_record(width, height).itemsize
    with open(path, "r+b") as fh:
        for i, value in enumerate(s):
            fh.seek(_GSIM_HEAD.size + i * size)
            fh.write(struct.pack("<d", value))


def save_series(series: MeasurementSeries, path) -> None:
    """Binary container: GSIM header, then one _gsim_record per ordinal, written one block_records block at a time."""
    with open(path, "wb") as fh:
        write_gsim_header(fh, series.width, series.height, len(series))
        step = block_records(series.width, series.height)
        for a in range(0, len(series), step):
            write_gsim_records(fh, series.s[a : a + step], series.frames[a : a + step])


def _read_header(fh, head: struct.Struct, magic: bytes, version: int, names: tuple, data_bytes: Callable) -> list:
    """The fields after magic and version of the header head packs, checked in that order, then against a file size of
    head.size + data_bytes(*fields), before anything is allocated; names: the file, format and data, for the messages."""
    what, short, data = names
    raw = fh.read(head.size)
    if raw[: len(magic)] != magic:
        raise PgmFormatError(f"not a {what}: missing {magic.decode()} magic")
    if len(raw) < head.size:
        raise PgmFormatError(f"truncated {short} header")
    found, *fields = head.unpack(raw)[1:]
    if found != version:
        raise PgmFormatError(f"unsupported {short} version {found}")
    size, need = os.fstat(fh.fileno()).st_size, head.size + data_bytes(*fields)
    if size < need:
        raise PgmFormatError(f"truncated {data}: {size} of {need} bytes")
    return fields


def load_series(path) -> MeasurementSeries:
    """One np.fromfile read; frames stay float32, as stored. Sizes are checked first: a dtype must fit a C int."""
    with open(path, "rb") as fh:
        names, data_bytes = ("measurement container", "container", "container"), lambda w, h, n: n * (8 + w * h * 4)
        width, height, count = _read_header(fh, _GSIM_HEAD, _GSIM_MAGIC, _GSIM_VERSION, names, data_bytes)
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
