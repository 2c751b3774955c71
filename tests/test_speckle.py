import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox

from ghostsim import (
    ConfigurationError,
    ContractError,
    SpeckleParams,
    generate_frame,
)
from ghostsim.noise import _STREAM_TAG as _NOISE_TAG
from ghostsim.speckle import _STREAM_TAG, _transfer, fill_frames, ordinal_rng


def _fresh_rng(seed: int, tag: int, n: int) -> Generator:
    """The generator of ordinal n, built anew: its counter is n << 128, its key (seed, tag)."""
    return Generator(Philox(counter=n << 128, key=np.array([seed, tag], dtype=np.uint64)))


def _allocating_frames(params: SpeckleParams, first: int, m: int) -> np.ndarray:
    """Frames first .. first + m - 1 by the allocating formula: a fresh generator per frame, a fresh complex field,
    inverted by np.fft.ifft2, each frame rescaled on its own."""
    out = np.empty((m, params.height, params.width))
    field = np.empty(out.shape, dtype=np.complex128)
    for n, (f, scratch) in enumerate(zip(field, out), first):
        rng = _fresh_rng(params.seed, _STREAM_TAG, n)
        f.real = rng.standard_normal(out=scratch)
        f.imag = rng.standard_normal(out=scratch)
    np.fft.fft2(field, out=field)
    field *= _transfer(params.width, params.height, float(params.grain_radius))
    field = np.fft.ifft2(field)
    np.square(field.real, out=out)
    out += np.square(field.imag, out=field.imag)
    for frame in out:
        frame *= params.mean_intensity / frame.mean()
    return out


def _fill(params: SpeckleParams, first: int, m: int) -> np.ndarray:
    return fill_frames(params, first, np.empty((m, params.height, params.width)))


@pytest.mark.parametrize(
    "width, height, m", [(64, 64, 1), (64, 64, 4), (64, 64, 16), (37, 53, 3), (37, 53, 33), (63, 63, 2), (256, 256, 1)]
)
def test_fill_frames_equals_the_allocating_formula(width, height, m):
    p = SpeckleParams(width=width, height=height, grain_radius=1.5, seed=9)
    assert np.array_equal(_fill(p, 7, m), _allocating_frames(p, 7, m))


def _draws(rng: Generator) -> list:
    """Draws of several kinds. The first leaves Philox's buffer mid-block, which the next reseek must empty; the array
    draw releases the GIL, as a frame's does."""
    normals = rng.standard_normal(999)[::99].tolist()
    return [rng.standard_normal(), rng.poisson(3.5), rng.integers(2**32), normals, rng.random()]


@pytest.mark.parametrize("n", [1, 2**64 - 1, 2**64, 2**64 + 3])
def test_ordinal_rng_draws_what_a_fresh_philox_draws(n):
    assert _draws(ordinal_rng(9, _STREAM_TAG, n)) == _draws(_fresh_rng(9, _STREAM_TAG, n))
    # the speckle and noise streams interleaved in one thread, each call after a partial draw of the other's
    for seed, tag in [(9, _NOISE_TAG), (2**64 - 1, _STREAM_TAG), (0, _NOISE_TAG), (9, _STREAM_TAG)]:
        assert _draws(ordinal_rng(seed, tag, n)) == _draws(_fresh_rng(seed, tag, n))


def test_ordinal_rng_is_one_generator_per_thread():
    # three pool threads reseek their generators at once, switching every 10 us between draws
    streams, ordinals = [(5, _STREAM_TAG), (5, _NOISE_TAG), (6, _STREAM_TAG)], range(1, 301)
    barrier = threading.Barrier(len(streams))

    def draws(seed: int, tag: int) -> list:
        barrier.wait(timeout=30)
        return [_draws(ordinal_rng(seed, tag, n)) for n in ordinals]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            made = [pool.submit(draws, *stream) for stream in streams]
            for (seed, tag), future in zip(streams, made):
                assert future.result(timeout=60) == [_draws(_fresh_rng(seed, tag, n)) for n in ordinals]
    finally:
        sys.setswitchinterval(interval)
    assert ordinal_rng(1, 2, 3) is ordinal_rng(4, 5, 6)  # this thread's one generator, valid until its next call


def test_a_threads_scratch_carries_nothing_between_shapes_and_lengths():
    # one thread: 4 frames at 64x64, then 1 at 37x53 (a new shape), then 3 at 64x64 (shorter than its scratch)
    square, odd = SpeckleParams(width=64, height=64, seed=4), SpeckleParams(width=37, height=53, seed=4)
    calls = [(square, 1, 4), (odd, 5, 1), (square, 9, 3)]
    with ThreadPoolExecutor(1) as pool:
        made = [pool.submit(_fill, *call).result() for call in calls]
    for call, frames in zip(calls, made):
        with ThreadPoolExecutor(1) as fresh:  # a new thread, so a new scratch
            assert np.array_equal(frames, fresh.submit(_fill, *call).result())
        assert np.array_equal(frames, _allocating_frames(*call))


def test_params_validation():
    with pytest.raises(ConfigurationError):
        SpeckleParams(width=0, height=8)
    with pytest.raises(ConfigurationError):
        SpeckleParams(width=8, height=-1)
    with pytest.raises(ConfigurationError):
        SpeckleParams(width=8, height=8, grain_radius=0.0)
    with pytest.raises(ConfigurationError):
        SpeckleParams(width=8, height=8, mean_intensity=0.0)
    with pytest.raises(ConfigurationError):
        SpeckleParams(width=8, height=8, seed=-1)


@pytest.mark.parametrize("name", ["grain_radius", "mean_intensity"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite_floats(name, value):
    with pytest.raises(ConfigurationError) as err:
        SpeckleParams(width=8, height=8, **{name: value})
    assert err.value.field == name


def test_frame_index_is_one_based():
    p = SpeckleParams(width=8, height=8, seed=3)
    with pytest.raises(ContractError):
        generate_frame(p, 0)
    with pytest.raises(ContractError):
        generate_frame(p, -5)


def test_replay_is_bit_identical():
    p = SpeckleParams(width=16, height=16, seed=7)
    a = generate_frame(p, 12)
    b = generate_frame(p, 12)
    assert np.array_equal(a, b)


def test_random_access_matches_sequential():
    p = SpeckleParams(width=16, height=16, seed=7)
    # Reading out of order must give the same frames as reading in order.
    out_of_order = {n: generate_frame(p, n) for n in (5, 2, 9, 1)}
    in_order = {n: generate_frame(p, n) for n in (1, 2, 5, 9)}
    for n in (1, 2, 5, 9):
        assert np.array_equal(out_of_order[n], in_order[n])


def test_distinct_frames_and_seeds_differ():
    p = SpeckleParams(width=16, height=16, seed=7)
    q = SpeckleParams(width=16, height=16, seed=8)
    assert not np.array_equal(generate_frame(p, 1), generate_frame(p, 2))
    assert not np.array_equal(generate_frame(p, 1), generate_frame(q, 1))


def test_frame_mean_and_nonnegativity():
    p = SpeckleParams(width=32, height=32, grain_radius=2.0, mean_intensity=3.5, seed=11)
    f = generate_frame(p, 4)
    assert f.min() >= 0.0
    assert abs(f.mean() - 3.5) < 1e-9


def test_contrast_near_unity():
    # Fully developed speckle has std/mean -> 1; tolerance from the
    # calibration sweep in calibration/calibration.md.
    p = SpeckleParams(width=128, height=128, grain_radius=4.0, seed=5)
    for n in range(1, 6):
        f = generate_frame(p, n)
        contrast = f.std() / f.mean()
        assert abs(contrast - 1.0) < 0.15


def test_intensity_histogram_is_negative_exponential():
    # Pooled one-point statistics over >= 100 frames against Exp(mean).
    # KS threshold frozen from the calibration run (observed max ~0.006).
    p = SpeckleParams(width=64, height=64, grain_radius=2.0, seed=9)
    pooled = np.concatenate([generate_frame(p, n).ravel() for n in range(1, 101)])
    pooled = np.sort(pooled)
    mean = pooled.mean()
    empirical = np.arange(1, pooled.size + 1) / pooled.size
    model = 1.0 - np.exp(-pooled / mean)
    ks = float(np.max(np.abs(empirical - model)))
    assert ks < 0.02


def _autocorr_half_width(frame):
    """Lag (pixels, along x) where the centered intensity autocorrelation
    first drops below half its zero-lag peak."""
    d = frame - frame.mean()
    spec = np.abs(np.fft.fft2(d)) ** 2
    ac = np.fft.ifft2(spec).real
    row = ac[0, : frame.shape[1] // 2]
    half = row[0] / 2.0
    for lag in range(1, row.size):
        if row[lag] < half:
            return lag
    return row.size


@pytest.mark.parametrize("radius", [2.0, 4.0])
def test_grain_size_tracks_radius(radius):
    p = SpeckleParams(width=256, height=256, grain_radius=radius, seed=21)
    width = _autocorr_half_width(generate_frame(p, 1))
    assert radius / 2.0 <= width <= radius * 2.0


def test_inter_frame_independence():
    p = SpeckleParams(width=256, height=256, grain_radius=2.0, seed=13)
    prev = generate_frame(p, 1)
    for n in range(2, 8):
        cur = generate_frame(p, n)
        r = np.corrcoef(prev.ravel(), cur.ravel())[0, 1]
        assert abs(r) < 0.05
        prev = cur

