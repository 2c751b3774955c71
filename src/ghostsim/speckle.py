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
bit-identically, in any order, from any process or thread. Each thread keeps
one Philox generator, moved to an ordinal by setting its counter (ordinal_rng),
and one complex scratch: fill_frames makes a run of frames in place, every FFT
in place and one rescale for the run, and measurement runs it on a thread pool.
"""
from __future__ import annotations

import math
import threading
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


# .field: this thread's complex128 FFT scratch (k, height, width), k its longest item; .rng, .state: its ordinal_rng
_SCRATCH = threading.local()


def ordinal_rng(seed: int, tag: int, ordinal: int) -> Generator:
    """This thread's Philox generator, set to one ordinal of the stream keyed on (seed, tag): it draws what
    Generator(Philox(counter=ordinal << 128, key=[seed, tag])) draws. Valid until this thread's next call.

    One disjoint 2^128-counter block per ordinal; a frame consumes far less. Setting the state of the thread's one
    generator holds the GIL for a small part of the time that building a new generator for each ordinal would."""
    try:
        rng, state = _SCRATCH.rng, _SCRATCH.state
    except AttributeError:
        rng = _SCRATCH.rng = Generator(Philox(0))
        fresh = rng.bit_generator.state  # an empty buffer and no spare uint32, as in any new Philox
        words = {"state": {"counter": [0, 0, 0, 0], "key": [0, 0]}, "buffer": fresh["buffer"].tolist()}
        state = _SCRATCH.state = {**fresh, **words}  # Python ints: the state setter reads them faster than arrays
    state["state"]["counter"][2:] = ordinal & 0xFFFFFFFFFFFFFFFF, ordinal >> 64  # ordinal << 128, in 64-bit words
    state["state"]["key"][:] = seed, tag
    rng.bit_generator.state = state
    return rng


@lru_cache(maxsize=8)
def _transfer(width: int, height: int, radius: float) -> np.ndarray:
    # FFT of the (unnormalized) kernel exp(-x^2 / (2 radius^2)); the overall
    # kernel gain is irrelevant because every frame is rescaled to its mean.
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    return np.exp(-2.0 * np.pi**2 * radius * radius * (fx * fx + fy * fy))


def fill_frames(params: SpeckleParams, first: int, out: np.ndarray) -> np.ndarray:
    """Write frames first, first + 1, ... (1-based) into out, C-contiguous float64 (m, height, width); return out.

    The FFTs of the m frames run as one batch (bit for bit the per-frame ones): pocketfft releases the GIL for four
    64x64 frames, not for one. So does the Philox draw, so threads can fill disjoint parts of one buffer at once.
    Little else holds the GIL: each frame moves the thread's one generator to its ordinal (ordinal_rng), and the m
    frames are rescaled to the mean in one step, bit for bit frame by frame. No frame-sized array is allocated: the
    field lives in the thread's scratch and every FFT writes in place. The inverse is two 1-D passes, last axis first
    as ifft2 takes them, bit for bit its result: numpy 2.4's ifft2 writes wrong values into out=."""
    if first < 1:
        raise ContractError(f"frame_index must be >= 1, got {first}")
    field = getattr(_SCRATCH, "field", None)
    if field is None or field.shape[1:] != out.shape[1:] or len(field) < len(out):  # a new shape, or a longer item
        field = _SCRATCH.field = np.empty(out.shape, dtype=np.complex128)
    field = field[: len(out)]
    for n, (f, scratch) in enumerate(zip(field, out), first):
        rng = ordinal_rng(params.seed, _STREAM_TAG, n)
        f.real = rng.standard_normal(out=scratch)  # the first height*width normals, then the next
        f.imag = rng.standard_normal(out=scratch)
    np.fft.fft2(field, out=field)
    field *= _transfer(params.width, params.height, float(params.grain_radius))
    np.fft.ifft(field, axis=-1, out=field)
    np.fft.ifft(field, axis=-2, out=field)
    np.square(field.real, out=out)
    out += np.square(field.imag, out=field.imag)
    # |filtered Gaussian field|^2 is almost surely nonzero somewhere; each frame's mean is its own frame.mean()
    out *= (params.mean_intensity / out.mean(axis=(1, 2)))[:, None, None]
    return out


def generate_frame(params: SpeckleParams, frame_index: int) -> np.ndarray:
    """Speckle frame `frame_index` (1-based), float64 (height, width); a pure function of (params, frame_index)."""
    return fill_frames(params, frame_index, np.empty((1, params.height, params.width)))[0]
