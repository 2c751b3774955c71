"""Pseudothermal speckle synthesis.

Each frame is built from an i.i.d. circular complex Gaussian field that is
low-pass filtered with a Gaussian kernel (periodic boundary, applied in the
Fourier domain), squared in magnitude and rescaled to the requested mean.
Per-pixel intensities therefore follow negative-exponential statistics
(speckle contrast std/mean -> 1) and the intensity autocorrelation is a
Gaussian of width ~grain_radius.

Frames are addressed by ordinal, not drawn from a shared stream: frame n is
produced by a Philox generator keyed on (seed, module tag) with its 256-bit
counter block set from n. Any frame can be regenerated in isolation,
bit-identically, in any order, from any process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigurationError, ContractError

# Second 64-bit key word. Separates speckle draws from noise draws so equal
# user seeds in SpeckleParams and NoiseWaveform cannot alias streams.
_STREAM_TAG = 0x53504B4C  # "SPKL"


@dataclass(frozen=True)
class SpeckleParams:
    """Generator parameters. Frozen: a value is an identity for replay."""

    width: int
    height: int
    grain_radius: float = 2.0   # Gaussian kernel sigma, pixels
    mean_intensity: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1", field=name)
        for name in ("grain_radius", "mean_intensity"):
            if not 0.0 < float(getattr(self, name)) < math.inf:
                raise ConfigurationError(f"{name} must be a finite number > 0", field=name)
        if not 0 <= self.seed < 2**64:  # the Philox key word is 64 bits
            raise ConfigurationError("seed must be an integer in [0, 2**64)", field="seed")


def ordinal_rng(seed: int, tag: int, ordinal: int) -> Generator:
    """Philox generator for one ordinal of the stream keyed on (seed, tag).

    One disjoint 2^128-counter block per ordinal; a frame consumes far less.
    """
    key = np.array([seed, tag], dtype=np.uint64)
    return Generator(Philox(counter=ordinal << 128, key=key))


@lru_cache(maxsize=8)
def _transfer(width: int, height: int, radius: float) -> np.ndarray:
    # FFT of the (unnormalized) kernel exp(-x^2 / (2 radius^2)); the overall
    # kernel gain is irrelevant because every frame is rescaled to its mean.
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    return np.exp(-2.0 * np.pi**2 * radius * radius * (fx * fx + fy * fy))


def generate_frame(params: SpeckleParams, frame_index: int) -> np.ndarray:
    """Return speckle frame `frame_index` (1-based) as float64 (height, width).

    Pure function of (params, frame_index); repeated calls are bit-identical.
    """
    if frame_index < 1:
        raise ContractError(f"frame_index must be >= 1, got {frame_index}")
    rng = ordinal_rng(params.seed, _STREAM_TAG, frame_index)
    z = rng.standard_normal((2, params.height, params.width))
    field = z[0] + 1j * z[1]
    smooth = np.fft.ifft2(np.fft.fft2(field) * _transfer(params.width, params.height, float(params.grain_radius)))
    intensity = smooth.real**2 + smooth.imag**2
    # |filtered Gaussian field|^2 is almost surely nonzero somewhere
    intensity *= params.mean_intensity / intensity.mean()
    return intensity
