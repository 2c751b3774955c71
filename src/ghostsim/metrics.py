"""Reconstruction quality measures against a known truth mask."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation over all pixels; its sums are reductions of elementwise products, not BLAS dot products."""
    if a.shape != b.shape:
        raise ContractError(f"shape mismatch: {a.shape} vs {b.shape}")
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    x = x - x.mean()
    y = y - y.mean()
    vx = float(np.add.reduce(x * x))
    vy = float(np.add.reduce(y * y))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("pearson undefined for a constant image")
    return float(np.add.reduce(x * y)) / math.sqrt(vx * vy)


def cnr(image: np.ndarray, truth: np.ndarray) -> float:
    """Signed contrast-to-noise: (mean on truth>=0.5 minus mean off it) / std off it."""
    if image.shape != truth.shape:
        raise ContractError(f"shape mismatch: {image.shape} vs {truth.shape}")
    obj = np.asarray(truth, dtype=np.float64) >= 0.5
    bg = ~obj
    if not obj.any() or bg.sum() < 2:
        raise ContractError("cnr needs at least one object pixel and two background pixels")
    vals = np.asarray(image, dtype=np.float64)
    sigma = float(vals[bg].std())  # population std
    if sigma == 0.0:
        raise DegenerateInputError("background is constant; cnr undefined")
    return float(vals[obj].mean() - vals[bg].mean()) / sigma


def affine_mse(image: np.ndarray, truth: np.ndarray) -> float:
    """MSE after the best least-squares affine fit a*image + b to truth: var(truth) for a constant image.

    Removes the arbitrary scale and offset of a correlation image before
    comparing levels.
    """
    if image.shape != truth.shape:
        raise ContractError(f"shape mismatch: {image.shape} vs {truth.shape}")
    x = np.asarray(image, dtype=np.float64).ravel()
    y = np.asarray(truth, dtype=np.float64).ravel()
    x = x - x.mean()
    y = y - y.mean()
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
        return {"cnr": self.cnr, "pearson_r": self.pearson_r, "mse": self.mse}


def quality_report(image: np.ndarray, truth: np.ndarray) -> QualityReport:
    return QualityReport(cnr=cnr(image, truth), pearson_r=pearson(image, truth), mse=affine_mse(image, truth))
