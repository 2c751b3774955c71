import ctypes
import itertools
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ghostsim import MeasurementSeries

# hypothesis caches source constants and a unicode table in ./.hypothesis unless pointed elsewhere
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "ghostsim-hypothesis"))


def assert_close_rel(actual, expected, rtol, context=""):
    """Elementwise |a-e| <= rtol * max|expected| (scale-relative, not per-pixel
    relative, so pixels crossing zero do not blow up the comparison)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    worst = float(np.max(np.abs(actual - expected)))
    assert worst <= rtol * scale, f"{context} max|diff|={worst:.3e} exceeds {rtol:.1e} * scale {scale:.3e}"


def synthetic_series(seed, count=50, width=8, height=8):
    """Arbitrary positive-valued series, independent of the simulator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = rng.exponential(scale=1.0, size=(count, height, width))
    s = rng.uniform(10.0, 100.0, size=count)
    return MeasurementSeries(s=s, frames=frames)


@pytest.fixture
def frame_workers(monkeypatch):
    """frame_workers(k): from then on the test makes frames and replays on a pool of k threads, up to 2k items ahead.

    The interpreter switches threads every 10 us instead of 5 ms meanwhile, so the threads interleave finely."""
    import ghostsim.measurement as measurement

    pools, interval = [], sys.getswitchinterval()

    def use(k):
        pools.append(ThreadPoolExecutor(k))
        monkeypatch.setattr(measurement, "_POOL", pools[-1])
        monkeypatch.setattr(measurement, "_WORKERS", k)

    sys.setswitchinterval(1e-5)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.shutdown(cancel_futures=True)


def _openblas():
    """(get_num_threads, set_num_threads) of the OpenBLAS mapped into this process, or None (non-Linux, MKL, ...)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib, prefix, suffix in itertools.product(libs, ("scipy_openblas", "openblas"), ("64_", "")):
        handle = ctypes.CDLL(lib)
        get, put = (getattr(handle, f"{prefix}_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


@pytest.fixture
def blas_threads():
    """(get, set) of the process's OpenBLAS thread count; the count is put back after the test. Skips without OpenBLAS."""
    blas = _openblas()
    if blas is None:
        pytest.skip("no OpenBLAS in this process")
    get, put = blas
    before = get()
    try:
        yield get, put
    finally:
        put(before)


@pytest.fixture
def series8(tmp_path):
    return synthetic_series(1234)


def oracle_covariance_image(series: MeasurementSeries) -> np.ndarray:
    """Reference covariance image by definition, one pixel at a time.

    Deliberately naive (pure Python loops, no vectorization) and deliberately
    sharing no code with gi_reconstruct: this is the independent check the
    fast path is verified against. Use on small series only.
    """
    n = len(series)
    height, width = series.height, series.width
    s_vals = [float(v) for v in series.s]
    s_mean = sum(s_vals) / n
    out = np.empty((height, width))
    for r in range(height):
        for c in range(width):
            pix_mean = 0.0
            for i in range(n):
                pix_mean += float(series.frames[i, r, c])
            pix_mean /= n
            acc = 0.0
            for i in range(n):
                acc += (s_vals[i] - s_mean) * (float(series.frames[i, r, c]) - pix_mean)
            out[r, c] = acc / n
    return out
