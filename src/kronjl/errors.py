"""Exception types shared across the package. The command line maps each
to an exit code: ShapeError and ConfigError to 1, BudgetError to 2."""


class KronjlError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(KronjlError, ValueError):
    """A shape, length, axis size, axis set or word range breaks a contract."""


class BudgetError(KronjlError, RuntimeError):
    """An enumeration or a scan would exceed its budget, or an array a cap."""


class ConfigError(KronjlError, ValueError):
    """An experiment configuration is missing or inconsistent."""
