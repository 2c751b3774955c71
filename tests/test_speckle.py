import numpy as np
import pytest

from ghostsim import (
    ConfigurationError,
    ContractError,
    SpeckleParams,
    generate_frame,
)


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

