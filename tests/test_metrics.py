import numpy as np
import pytest
from scipy import stats

from ghostsim import (
    ContractError,
    DegenerateInputError,
    MeasurementSeries,
    affine_mse,
    cnr,
    pearson,
    quality_report,
)

from conftest import oracle_covariance_image


def _noisy_pair(seed, shape=(16, 16)):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal(shape)
    y = 0.6 * x + 0.4 * rng.standard_normal(shape)
    return x, y


def test_pearson_extremes():
    x = np.arange(12.0).reshape(3, 4)
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_scipy():
    for seed in (1, 2, 3):
        x, y = _noisy_pair(seed)
        ours = pearson(x, y)
        theirs = stats.pearsonr(x.ravel(), y.ravel()).statistic
        assert ours == pytest.approx(theirs, rel=1e-12)


def test_pearson_affine_invariance():
    x, y = _noisy_pair(4)
    assert pearson(3.0 * x + 11.0, y) == pytest.approx(pearson(x, y), rel=1e-12)
    assert pearson(-2.0 * x, y) == pytest.approx(-pearson(x, y), rel=1e-12)


def test_pearson_degenerate_and_shape():
    with pytest.raises(DegenerateInputError):
        pearson(np.full((4, 4), 3.0), np.arange(16.0).reshape(4, 4))
    with pytest.raises(ContractError):
        pearson(np.ones((2, 2)), np.ones((2, 3)))


def test_cnr_hand_value():
    # object mean 5, background mean 1, background std 2 -> cnr 2
    truth = np.array([[1.0, 1.0], [0.0, 0.0]])
    image = np.array([[5.0, 5.0], [-1.0, 3.0]])
    assert cnr(image, truth) == pytest.approx(2.0, rel=1e-12)
    # inverted contrast comes out negative
    assert cnr(-image, truth) == pytest.approx(-2.0, rel=1e-12)


def test_cnr_uses_population_std():
    truth = np.array([[1.0, 0.0, 0.0, 0.0]])
    image = np.array([[10.0, 0.0, 0.0, 3.0]])
    bg = np.array([0.0, 0.0, 3.0])
    expected = (10.0 - bg.mean()) / bg.std()  # ddof=0
    assert cnr(image, truth) == pytest.approx(expected, rel=1e-12)


def test_cnr_contracts():
    with pytest.raises(ContractError):
        cnr(np.ones((2, 2)), np.zeros((2, 2)))  # no object pixels
    with pytest.raises(ContractError):
        cnr(np.ones((2, 2)), np.ones((2, 2)))  # fewer than two background pixels
    with pytest.raises(DegenerateInputError):
        cnr(np.array([[5.0, 1.0], [1.0, 5.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ContractError):
        cnr(np.ones((2, 2)), np.ones((3, 2)))


def test_affine_mse_fits_scale_and_offset():
    x, _ = _noisy_pair(5)
    assert affine_mse(x, 3.0 * x + 7.0) == pytest.approx(0.0, abs=1e-18)
    assert affine_mse(3.0 * x + 7.0, x) == pytest.approx(0.0, abs=1e-18)
    y = x + 0.1 * np.random.Generator(np.random.PCG64(6)).standard_normal(x.shape)
    base = affine_mse(x, y)
    assert affine_mse(5.0 * x - 2.0, y) == pytest.approx(base, rel=1e-9)
    assert base > 0.0


def _lstsq_mse(image, truth):
    """affine_mse by LAPACK least squares on the design [image, 1]."""
    design = np.stack([image.ravel(), np.ones(image.size)], axis=1)
    coef, *_ = np.linalg.lstsq(design, truth.ravel(), rcond=None)
    resid = design @ coef - truth.ravel()
    return float(np.mean(resid * resid))


def test_affine_mse_is_the_least_squares_fit_and_var_of_truth_for_a_constant_image():
    rng = np.random.Generator(np.random.PCG64(8))
    for shape, offset, scale in (((16, 16), 0.0, 1.0), ((37, 53), 1e3, 1e-2), ((128, 128), -5.0, 1e6)):
        truth = (rng.uniform(size=shape) < 0.3).astype(np.float64)
        for image in (offset + scale * (truth + rng.standard_normal(shape)), offset + scale * rng.exponential(size=shape)):
            assert affine_mse(image, truth) == pytest.approx(_lstsq_mse(image, truth), rel=1e-12), shape
    truth = (rng.uniform(size=(16, 16)) < 0.3).astype(np.float64)
    for value in (0.0, 0.1, 3.0, -1e6):
        assert affine_mse(np.full(truth.shape, value), truth) == pytest.approx(np.var(truth), rel=1e-12), value


def test_quality_report_shape():
    x, y = _noisy_pair(7)
    truth = (y > 0).astype(np.float64)
    rep = quality_report(y, truth)
    d = rep.to_dict()
    assert set(d) == {"cnr", "pearson_r", "mse"}
    assert d["pearson_r"] == pytest.approx(pearson(y, truth), rel=1e-12)


def test_oracle_covariance_on_hand_example():
    series = MeasurementSeries(s=np.array([1.0, 3.0]), frames=np.array([[[2.0]], [[6.0]]]))
    assert oracle_covariance_image(series)[0, 0] == 2.0


def test_oracle_covariance_multi_pixel():
    # 3 records, 1x2 frames; covariance worked by hand per pixel
    s = np.array([1.0, 2.0, 3.0])          # mean 2
    frames = np.array([[[1.0, 0.0]], [[2.0, 2.0]], [[3.0, 10.0]]])
    # pixel 0: mean 2, sum (s_i-2)(f_i-2) = (-1)(-1)+0+.. = 1+0+1 = 2, /3
    # pixel 1: mean 4, (-1)(-4)+0*(-2)+(1)(6) = 4+0+6 = 10, /3
    img = oracle_covariance_image(MeasurementSeries(s=s, frames=frames))
    assert img[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert img[0, 1] == pytest.approx(10.0 / 3.0, rel=1e-15)
