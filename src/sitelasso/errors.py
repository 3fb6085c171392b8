"""Exception hierarchy.

The split between ConfigError / DataError / NumericalError mirrors the CLI
exit codes (2 / 3 / 1); everything else derives from SiteLassoError.
"""


class SiteLassoError(Exception):
    """Base class for all package errors."""


class ConfigError(SiteLassoError):
    """Bad or missing configuration (CLI exit code 2)."""


class DataError(SiteLassoError):
    """Malformed or inconsistent input data (CLI exit code 3)."""


class NumericalError(SiteLassoError):
    """Numerical failure during fitting or prediction (CLI exit code 1)."""


class CollinearTermsError(NumericalError):
    """Exactly collinear columns entered the active set."""
