import math

import numpy as np
import pytest

from ghostsim import (
    ConfigurationError,
    ContractError,
    NoiseWaveform,
    SpatialNoiseMask,
    noise_value,
    per_step_noise_delta_bound,
)


def test_off_and_constant_values():
    off = NoiseWaveform(kind="off")
    assert noise_value(off, 1) == 0.0
    assert noise_value(off, 10**6) == 0.0
    const = NoiseWaveform(kind="constant", amplitude=940000.0)
    assert noise_value(const, 1) == 940000.0
    assert noise_value(const, 123) == 940000.0


def test_sinusoid_midpoint_convention():
    # Oscillates inside [0, amplitude]; the first sample at phase 0 sits at
    # the midpoint: Q_1 = amplitude / 2.
    w = NoiseWaveform(kind="sinusoid", amplitude=1050000.0, frequency=5.0, sample_rate=25.0)
    assert noise_value(w, 1) == 525000.0
    values = np.array([noise_value(w, n) for n in range(1, 200)])
    assert values.min() >= 0.0
    assert values.max() <= 1050000.0 + 1e-6
    # 5 Hz at 25 samples/s repeats every 5 steps
    for n in range(1, 100):
        assert noise_value(w, n + 5) == pytest.approx(noise_value(w, n), abs=1e-4)


def test_sinusoid_phase_and_frequency():
    w = NoiseWaveform(kind="sinusoid", amplitude=2.0, frequency=12.5, sample_rate=25.0, phase=math.pi / 2)
    # At the alternation frequency fs/2 with a quarter-turn phase the samples
    # toggle between amplitude and zero.
    vals = [noise_value(w, n) for n in range(1, 7)]
    assert vals == pytest.approx([2.0, 0.0, 2.0, 0.0, 2.0, 0.0], abs=1e-12)
    # Phase 0 at fs/2 degenerates to a constant midpoint sample.
    w0 = NoiseWaveform(kind="sinusoid", amplitude=2.0, frequency=12.5, sample_rate=25.0)
    assert [noise_value(w0, n) for n in (1, 2, 3)] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_stochastic_kinds_replayable_and_order_free():
    for kind in ("gaussian_white", "poisson"):
        w = NoiseWaveform(kind=kind, amplitude=100.0, seed=7)
        late_first = noise_value(w, 500)
        early = noise_value(w, 3)
        assert noise_value(w, 500) == late_first
        assert noise_value(w, 3) == early
        assert noise_value(w, 4) != early or noise_value(w, 5) != early


def test_stochastic_seeds_separate_streams():
    a = NoiseWaveform(kind="gaussian_white", amplitude=100.0, seed=1)
    b = NoiseWaveform(kind="gaussian_white", amplitude=100.0, seed=2)
    va = [noise_value(a, n) for n in range(1, 20)]
    vb = [noise_value(b, n) for n in range(1, 20)]
    assert va != vb


def test_gaussian_white_clamps_at_zero():
    w = NoiseWaveform(kind="gaussian_white", amplitude=1.0, seed=11)
    # Clamping needs a 4-sigma-low draw; ordinal 12021 is the first such draw
    # for this seed (found by scan, stable under counter-based replay).
    assert noise_value(w, 12021) == 0.0
    vals = np.array([noise_value(w, n) for n in range(1, 2001)])
    assert np.all(vals >= 0.0)


def test_poisson_values_are_nonnegative_integers():
    w = NoiseWaveform(kind="poisson", amplitude=9.5, seed=3)
    vals = [noise_value(w, n) for n in range(1, 200)]
    assert all(v >= 0.0 and v == int(v) for v in vals)
    assert np.mean(vals) == pytest.approx(9.5, abs=1.0)


def test_ordinal_contract():
    w = NoiseWaveform(kind="constant", amplitude=1.0)
    with pytest.raises(ContractError):
        noise_value(w, 0)


def test_waveform_validation():
    with pytest.raises(ConfigurationError):
        NoiseWaveform(kind="square")
    with pytest.raises(ConfigurationError):
        NoiseWaveform(kind="constant", amplitude=-1.0)
    with pytest.raises(ConfigurationError):
        NoiseWaveform(kind="sinusoid", amplitude=1.0, frequency=-2.0)
    with pytest.raises(ConfigurationError):
        NoiseWaveform(kind="sinusoid", amplitude=1.0, sample_rate=0.0)
    with pytest.raises(ConfigurationError):
        NoiseWaveform(kind="poisson", amplitude=1.0, seed=-4)
    with pytest.raises(ConfigurationError):
        NoiseWaveform(kind="poisson", amplitude=1e19)  # past numpy's largest poisson mean (about 9.22e18)


@pytest.mark.parametrize("name", ["amplitude", "frequency", "phase", "sample_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_waveform_rejects_non_finite_floats(name, value):
    with pytest.raises(ConfigurationError) as err:
        NoiseWaveform(kind="sinusoid", **{name: value})
    assert err.value.field == name


def test_delta_bound_formulas():
    assert per_step_noise_delta_bound(NoiseWaveform(kind="off")) == 0.0
    assert per_step_noise_delta_bound(NoiseWaveform(kind="constant", amplitude=5.0)) == 0.0
    sin5 = NoiseWaveform(kind="sinusoid", amplitude=1050000.0, frequency=5.0, sample_rate=25.0)
    assert per_step_noise_delta_bound(sin5) == pytest.approx(1050000.0 * math.sin(math.pi / 5.0), rel=1e-15)
    nyq = NoiseWaveform(kind="sinusoid", amplitude=2.0, frequency=12.5, sample_rate=25.0)
    assert per_step_noise_delta_bound(nyq) == pytest.approx(2.0, rel=1e-15)
    # f = 4*fs aliases to a constant sample train: the step bound is zero
    aliased = NoiseWaveform(kind="sinusoid", amplitude=3.0, frequency=100.0, sample_rate=25.0)
    assert per_step_noise_delta_bound(aliased) == pytest.approx(0.0, abs=1e-12)
    # f = 0.8*fs folds back onto the 0.2*fs bound
    folded = NoiseWaveform(kind="sinusoid", amplitude=3.0, frequency=20.0, sample_rate=25.0)
    assert per_step_noise_delta_bound(folded) == pytest.approx(3.0 * math.sin(0.2 * math.pi), rel=1e-12)
    g = NoiseWaveform(kind="gaussian_white", amplitude=100.0)
    assert per_step_noise_delta_bound(g) == 150.0
    p = NoiseWaveform(kind="poisson", amplitude=100.0)
    assert per_step_noise_delta_bound(p) == 60.0


def test_sinusoid_bound_is_tight_over_long_scan():
    w = NoiseWaveform(kind="sinusoid", amplitude=1050000.0, frequency=5.0, sample_rate=25.0)
    bound = per_step_noise_delta_bound(w)
    vals = np.array([noise_value(w, n) for n in range(1, 100001)])
    deltas = np.abs(np.diff(vals))
    # trig argument reduction drifts ~ A * n * eps at large ordinals, so the
    # observed max can poke a hair past the analytic bound
    assert deltas.max() <= bound * (1.0 + 1e-8)
    assert deltas.max() >= bound * (1.0 - 1e-8)  # attained, not just bounded


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind,allowance",
    [("gaussian_white", 60), ("poisson", 60)],
)
def test_stochastic_bound_violation_rate(kind, allowance):
    # The 6-sigma step bound is probabilistic. Observed fixed-seed counts over
    # 1e6 steps (seed 7): gaussian_white and poisson both land in the low tens
    # (see calibration/calibration.md); allow headroom but catch regressions
    # that would indicate a broken bound or distribution.
    w = NoiseWaveform(kind=kind, amplitude=100.0, seed=7)
    bound = per_step_noise_delta_bound(w)
    vals = np.fromiter((noise_value(w, n) for n in range(1, 1000001)), dtype=np.float64)
    violations = int(np.count_nonzero(np.abs(np.diff(vals)) > bound))
    assert violations <= allowance


def test_spatial_full_and_right_half():
    full = SpatialNoiseMask(region="full").weights(4, 3)
    assert np.array_equal(full, np.ones((3, 4)))
    rh = SpatialNoiseMask(region="right_half").weights(4, 4)
    assert np.array_equal(rh, np.array([[0, 0, 1, 1]] * 4, dtype=np.float64))
    # odd width: the strictly-right columns only
    rh5 = SpatialNoiseMask(region="right_half").weights(5, 2)
    assert np.array_equal(rh5[0], np.array([0, 0, 0, 1, 1], dtype=np.float64))


def test_spatial_double_slit_right_half():
    w = SpatialNoiseMask(region="double_slit_right_half").weights(64, 64)
    assert w[:, :32].sum() == 0.0
    cols = w[0]
    runs = np.flatnonzero(np.diff(np.concatenate(([0.0], cols, [0.0]))) == 1.0)
    assert runs.size == 2
    assert np.array_equal(w, np.tile(w[0], (64, 1)))


def test_spatial_custom():
    cw = np.array([[0.0, 0.5], [1.0, 0.25]])
    sm = SpatialNoiseMask(region="custom", custom_weights=cw)
    assert np.array_equal(sm.weights(2, 2), cw)
    with pytest.raises(ContractError):
        sm.weights(3, 3)


def test_spatial_validation():
    with pytest.raises(ConfigurationError):
        SpatialNoiseMask(region="left_half")
    with pytest.raises(ConfigurationError):
        SpatialNoiseMask(region="custom")
    with pytest.raises(ConfigurationError):
        SpatialNoiseMask(region="custom", custom_weights=np.full((2, 2), 2.0))
    with pytest.raises(ConfigurationError):
        SpatialNoiseMask(region="custom", custom_weights=np.ones(4))
    with pytest.raises(ConfigurationError):
        SpatialNoiseMask(region="full", custom_weights=np.ones((2, 2)))

