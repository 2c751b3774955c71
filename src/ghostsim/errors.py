"""Error taxonomy shared by every module.

The CLI maps these onto process exit codes: configuration errors exit 2,
contract violations exit 3, file format problems exit 4 (plain OSError,
e.g. a missing file, also exits 4).
"""
import sys
from contextlib import contextmanager


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


@contextmanager
def memory_guard(what: str, nbytes: int):
    """Turn an allocation of nbytes that cannot succeed into a ContractError naming what needed how many GB."""
    try:
        if nbytes > sys.maxsize:  # numpy raises ValueError, not MemoryError, for a size past its index range
            raise MemoryError
        yield
    except MemoryError as exc:
        from decimal import Decimal  # formats sizes beyond float range; imported only when needed
        raise ContractError(f"{what} needs {Decimal(nbytes) / 10**9:.3g} GB; it does not fit in memory") from exc
