"""Optional numba acceleration of the coordinate-descent test oracle.

The sweep kernel of :mod:`.cd` is written once, in numpy-compatible form, and
compiled with ``numba.njit`` unless the ``SITELASSO_DISABLE_NUMBA``
environment variable is set to a truthy value (1/true/yes) or numba is
unavailable (it is a test-only dependency). The plain-python original stays
reachable via ``kernel.py_func`` when compiled.
"""

import os

_TRUTHY = {"1", "true", "yes", "on"}


def _disabled_by_env() -> bool:
    return os.environ.get("SITELASSO_DISABLE_NUMBA", "").strip().lower() in _TRUTHY


NUMBA_ENABLED = False

if not _disabled_by_env():
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is an optional, test-only dependency
        NUMBA_ENABLED = False


def maybe_njit(func):
    """Compile ``func`` with numba when enabled, else return it unchanged."""
    if NUMBA_ENABLED:
        return _njit(cache=True)(func)
    return func


def py_version(kernel):
    """Return the uncompiled python version of a kernel."""
    return getattr(kernel, "py_func", kernel)
