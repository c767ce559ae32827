"""Run-wide limits for the exact engines.

The caps exist to turn runaway computations into loud errors instead of
silent multi-hour runs.  Both can be raised per call; the completion cap
can also be raised through the ``DIFFSEQ_DEGREE_CAP`` environment variable.
"""

import os

EXPONENT_CAP = 32
DEGREE_CAP_DEFAULT = 12
DEGREE_CAP_ENV = "DIFFSEQ_DEGREE_CAP"


class DegreeCapExceeded(RuntimeError):
    """A basis completion needed S-pairs above the configured degree cap,
    the lowest of them of shifted degree ``degree``."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class ExponentCapExceeded(RuntimeError):
    """A single exponent exceeded the per-variable cap (runaway product)."""


class ConfigError(ValueError):
    """A limit was set to a value the engines cannot use."""


def degree_cap(override=None):
    """Effective completion cap: explicit override, else env var, else default."""
    value = os.environ.get(DEGREE_CAP_ENV) if override is None else override
    if value is None:
        return DEGREE_CAP_DEFAULT
    if not str(value).strip().isdecimal() or int(value) < 1:
        name = DEGREE_CAP_ENV if override is None else "degree cap"
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
