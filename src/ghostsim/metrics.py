"""Reconstruction quality measures against a known truth mask."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError


def _pixels(a: np.ndarray, b: np.ndarray) -> tuple:
    """a and b, which must have one shape, as flat float64 vectors."""
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.asarray(a, dtype=np.float64).ravel(), np.asarray(b, dtype=np.float64).ravel()


def _centered(a: np.ndarray, b: np.ndarray) -> tuple:
    return tuple(v - v.mean() for v in _pixels(a, b))


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation over all pixels; its sums are reductions of elementwise products, not BLAS dot products."""
    x, y = _centered(a, b)
    vx = float(np.add.reduce(x * x))
    vy = float(np.add.reduce(y * y))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("pearson undefined for a constant image")
    return float(np.add.reduce(x * y)) / math.sqrt(vx * vy)


def cnr(image: np.ndarray, truth: np.ndarray) -> float:
    """Signed contrast-to-noise: (mean on truth>=0.5 minus mean off it) / std off it."""
    vals, truth = _pixels(image, truth)
    obj = truth >= 0.5
    bg = ~obj
    if not obj.any() or bg.sum() < 2:
        raise ContractError("cnr needs at least one object pixel and two background pixels")
    sigma = float(vals[bg].std())  # population std
    if sigma == 0.0:
        raise DegenerateInputError("background is constant; cnr undefined")
    return float(vals[obj].mean() - vals[bg].mean()) / sigma


def affine_mse(image: np.ndarray, truth: np.ndarray) -> float:
    """MSE after the best least-squares affine fit a*image + b to truth: var(truth) for a constant image.

    Removes the arbitrary scale and offset of a correlation image before
    comparing levels.
    """
    x, y = _centered(image, truth)
    sxx = np.add.reduce(x * x)
    slope = np.add.reduce(x * y) / sxx if sxx > 0.0 else 0.0  # closed form; the offset takes the means
    resid = slope * x - y
    return float(np.mean(resid * resid))


@dataclass
class QualityReport:
    cnr: float
    pearson_r: float
    mse: float

    def to_dict(self) -> dict:
        return asdict(self)


def quality_report(image: np.ndarray, truth: np.ndarray) -> QualityReport:
    return QualityReport(cnr=cnr(image, truth), pearson_r=pearson(image, truth), mse=affine_mse(image, truth))
