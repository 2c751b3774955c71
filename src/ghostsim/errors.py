"""Error taxonomy shared by every module.

The CLI maps these onto process exit codes: configuration errors exit 2,
contract violations exit 3, file format problems exit 4 (plain OSError,
e.g. a missing file, also exits 4).
"""


class GhostsimError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigurationError(GhostsimError):
    """Invalid parameter values: bad dimensions, unknown names, count < 2. field names the parameter at fault."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class ContractError(GhostsimError):
    """A call violated an operation contract (shape mismatch, bad ordinal)."""


class DegenerateInputError(GhostsimError):
    """Input is constant or empty where variation is required."""


class PgmFormatError(GhostsimError):
    """Malformed or truncated PGM / binary container data."""
