"""Deterministic pseudothermal ghost-imaging simulator.

Speckle frames and noise samples are addressed by ordinal through
counter-based generators, so every run is replayable bit for bit. Noise can
be injected into the object arm (A), straight onto the bucket signal (B) or
onto a region of the reference frames (C), and reconstruction is available
both as the classical mean-subtracted correlation (GI) and as the
consecutive-difference streaming form (IGI).
"""

__version__ = "0.1.0"

import types as _types

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
    BlockRun,
    IgiAccumulator,
    ValidityReport,
    gi_reconstruct,
    igi_reconstruct,
    load_f64,
    run_blocks,
    save_f64,
    save_recon_pgm,
    validity_diagnostic,
)
from .scene import BUILTIN_MASKS, bucket_signal, builtin_mask, load_mask, save_mask
from .speckle import SpeckleParams, generate_frame

# the public API is every name imported above; submodules are not part of it
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
