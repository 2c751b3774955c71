"""Background-light noise: temporal waveforms and spatial weighting.

Waveform values are non-negative by construction (light adds, it does not
subtract). Stochastic kinds are indexed like speckle frames: the value at
step n comes from the calling thread's Philox generator (speckle.ordinal_rng)
keyed on (seed, module tag) with the counter set from n, so any step is
replayable out of order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError
from .scene import _slits, unit_grid
from .speckle import ordinal_rng

NOISE_KINDS = ("off", "constant", "sinusoid", "gaussian_white", "poisson")
SPATIAL_REGIONS = ("full", "right_half", "double_slit_right_half", "custom")

_STREAM_TAG = 0x4E4F4953  # "NOIS"
_POISSON_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)  # numpy's largest poisson mean


@dataclass(frozen=True)
class NoiseWaveform:
    kind: str = "off"
    amplitude: float = 0.0
    frequency: float = 0.0      # Hz, sinusoid only
    phase: float = 0.0          # radians, sinusoid only
    sample_rate: float = 25.0   # measurements per second
    seed: int = 0               # stochastic kinds only

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"unknown noise kind {self.kind!r}; choose from {NOISE_KINDS}", field="kind")
        for name in ("amplitude", "frequency", "phase", "sample_rate"):
            if not math.isfinite(getattr(self, name)):  # nan < 0.0 is False: NaN passes every range check below
                raise ConfigurationError(f"{name} must be a finite number", field=name)
        if self.amplitude < 0.0:
            raise ConfigurationError("noise amplitude must be >= 0", field="amplitude")
        if self.kind == "poisson" and self.amplitude > _POISSON_MAX:
            raise ConfigurationError(f"poisson amplitude must be <= {_POISSON_MAX:.4g}", field="amplitude")
        if self.sample_rate <= 0.0:
            raise ConfigurationError("sample_rate must be > 0", field="sample_rate")
        if self.kind == "sinusoid" and self.frequency < 0.0:
            raise ConfigurationError("sinusoid frequency must be >= 0", field="frequency")
        if not 0 <= self.seed < 2**64:  # the Philox key word is 64 bits
            raise ConfigurationError("seed must be an integer in [0, 2**64)", field="seed")

    def angle(self, n: int) -> float:
        """The sinusoid's angle 2*pi*frequency*t + phase at ordinal n, t = (n - 1) / sample_rate; grows with n."""
        return 2.0 * math.pi * self.frequency * ((n - 1) / self.sample_rate) + self.phase


def noise_value(waveform: NoiseWaveform, n: int) -> float:
    """Waveform sample Q_n at measurement ordinal n (1-based). Always >= 0."""
    if n < 1:
        raise ContractError(f"ordinal must be >= 1, got {n}")
    k = waveform.kind
    if k == "off":
        return 0.0
    if k == "constant":
        return waveform.amplitude
    if k == "sinusoid":
        # midpoint convention: oscillates in [0, amplitude], so Q_1 = A/2 at phase 0
        return 0.5 * waveform.amplitude * (1.0 + math.sin(waveform.angle(n)))
    if k == "gaussian_white":
        z = ordinal_rng(waveform.seed, _STREAM_TAG, n).standard_normal()
        return max(0.0, waveform.amplitude + 0.25 * waveform.amplitude * z)
    # poisson
    return float(ordinal_rng(waveform.seed, _STREAM_TAG, n).poisson(waveform.amplitude))


def per_step_noise_delta_bound(waveform: NoiseWaveform) -> float:
    """Upper bound on |Q_{n+1} - Q_n| (probabilistic 6-sigma for stochastic kinds).

    sinusoid: amplitude * |sin(pi*f/fs)|, which is exact for every f including
    aliased ones (sampling folds f > fs/2 back; at integer multiples of fs the
    sampled waveform is constant and the bound is genuinely zero).
    """
    k = waveform.kind
    if k in ("off", "constant"):
        return 0.0
    if k == "sinusoid":
        return waveform.amplitude * abs(math.sin(math.pi * waveform.frequency / waveform.sample_rate))
    if k == "gaussian_white":
        return 6.0 * (waveform.amplitude / 4.0)
    return 6.0 * math.sqrt(waveform.amplitude)  # poisson


@dataclass
class SpatialNoiseMask:
    """Where reference-plane noise lands, as per-pixel weights in [0, 1]."""

    region: str = "full"
    custom_weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.region not in SPATIAL_REGIONS:
            raise ConfigurationError(f"unknown region {self.region!r}; choose from {SPATIAL_REGIONS}", field="region")
        if self.region == "custom":
            if self.custom_weights is None:
                raise ConfigurationError("custom spatial region requires custom_weights", field="custom_weights")
            self.custom_weights = unit_grid(self.custom_weights, "custom_weights", ConfigurationError, field="custom_weights")
        elif self.custom_weights is not None:
            raise ConfigurationError("custom_weights only apply to the custom region", field="custom_weights")

    def weights(self, width: int, height: int) -> np.ndarray:
        """Weight grid for the given frame size."""
        if self.region == "full":
            return np.ones((height, width))
        if self.region == "right_half":
            w = np.zeros((height, width))
            w[:, (width + 1) // 2 :] = 1.0  # columns >= width/2
            return w
        if self.region == "double_slit_right_half":  # slits a sixth as wide as the right half, columns >= width/2
            return _slits(width, height, (width + 1) // 2, max(1, (width // 2) // 6))
        # custom
        cw = self.custom_weights
        if cw.shape != (height, width):
            raise ContractError(f"custom_weights shape {cw.shape} does not match frame {(height, width)}")
        return cw.copy()
