"""Deterministic pseudothermal ghost-imaging simulator.

Speckle frames and noise samples are addressed by ordinal through
counter-based generators, so every run is replayable bit for bit. Noise can
be injected into the object arm (A), straight onto the bucket signal (B) or
onto a region of the reference frames (C), and reconstruction is available
both as the classical mean-subtracted correlation (GI) and as the
consecutive-difference streaming form (IGI).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateInputError,
    GhostsimError,
    PgmFormatError,
)
from .measurement import (
    POSITIONS,
    MeasurementRecord,
    MeasurementSeries,
    NoiseSpec,
    Scenario,
    clean_bucket_series,
    column_curve,
    load_series,
    save_series,
    simulate,
    simulate_stream,
    write_curve_csv,
)
from .metrics import QualityReport, affine_mse, cnr, pearson, quality_report
from .noise import (
    NOISE_KINDS,
    SPATIAL_REGIONS,
    NoiseWaveform,
    SpatialNoiseMask,
    noise_value,
    per_step_noise_delta_bound,
)
from .reconstruct import (
    IGI_NORMALIZATIONS,
    IgiAccumulator,
    ValidityReport,
    gi_reconstruct,
    igi_reconstruct,
    load_f64,
    save_f64,
    save_recon_pgm,
    validity_diagnostic,
)
from .scene import BUILTIN_MASKS, bucket_signal, builtin_mask, load_mask, save_mask
from .speckle import SpeckleParams, generate_frame

__all__ = [
    "ConfigurationError",
    "ContractError",
    "DegenerateInputError",
    "GhostsimError",
    "PgmFormatError",
    "POSITIONS",
    "MeasurementRecord",
    "MeasurementSeries",
    "NoiseSpec",
    "Scenario",
    "clean_bucket_series",
    "column_curve",
    "load_series",
    "save_series",
    "simulate",
    "simulate_stream",
    "write_curve_csv",
    "QualityReport",
    "affine_mse",
    "cnr",
    "pearson",
    "quality_report",
    "NOISE_KINDS",
    "SPATIAL_REGIONS",
    "NoiseWaveform",
    "SpatialNoiseMask",
    "noise_value",
    "per_step_noise_delta_bound",
    "IGI_NORMALIZATIONS",
    "IgiAccumulator",
    "ValidityReport",
    "gi_reconstruct",
    "igi_reconstruct",
    "load_f64",
    "save_f64",
    "save_recon_pgm",
    "validity_diagnostic",
    "BUILTIN_MASKS",
    "builtin_mask",
    "bucket_signal",
    "load_mask",
    "save_mask",
    "SpeckleParams",
    "generate_frame",
    "__version__",
]
