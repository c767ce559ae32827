"""Run-wide limits for the exact engines, and the one process-wide cache.

The caps exist to turn runaway computations into loud errors instead of
silent multi-hour runs.  ``EXPONENT_CAP`` is a constant.  The degree cap
on basis completion has one setting, the ``DIFFSEQ_DEGREE_CAP`` environment
variable, which every completion reads, from the library and the CLI alike.

``cached`` is the only memoizer in the package: an unbounded ``lru_cache``
under a plain function that exposes ``cache_clear`` and ``cache_info``, so a
cached public function is still a function to anything that wraps it.
"""

import os
from functools import lru_cache, update_wrapper

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


def record(cls):
    """Frozen record of the annotated fields of ``cls``: ``dataclass(frozen=True)``
    without its generated source and ``inspect`` import, which were most of the
    cold-start cost of ``import diffseq.cli``.  Same construction (annotation
    order, class-level defaults, ``__post_init__``), field-tuple hash, eq and
    ``Name(f=v, ...)`` repr (a class's own eq, hash or repr is kept), and
    ``AttributeError`` on assignment or deletion."""
    names = tuple(cls.__annotations__)
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        values = dict(defaults, **dict(zip(names, args)), **kwargs)
        if len(args) > len(names) or values.keys() != set(names):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
        self.__dict__.update((k, values[k]) for k in names)
        if post_init is not None:
            post_init(self)

    def fields(self):
        return tuple([getattr(self, k) for k in names])

    def frozen(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot change {name!r}")

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, frozen, frozen
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = lambda self: hash(fields(self))
    if "__eq__" not in cls.__dict__:
        cls.__eq__ = lambda self, other: (
            fields(self) == fields(other) if other.__class__ is self.__class__
            else NotImplemented)
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = lambda self: "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{k}={v!r}" for k, v in zip(names, fields(self))))
    return cls


def cached(body):
    """``body`` memoized for the life of the process, one entry per distinct
    argument tuple (a keyword call is its own entry, as in ``lru_cache``), as
    a plain function with ``body``'s name and docstring and the cache's
    ``cache_clear`` and ``cache_info``.  Results are shared: do not mutate
    them."""
    memo = lru_cache(maxsize=None)(body)

    def call(*args, **kwargs):
        return memo(*args, **kwargs)

    call.cache_clear, call.cache_info = memo.cache_clear, memo.cache_info
    return update_wrapper(call, body)


def degree_cap():
    """The completion cap: ``DIFFSEQ_DEGREE_CAP`` if set, else the default."""
    value = os.environ.get(DEGREE_CAP_ENV)
    if value is None:
        return DEGREE_CAP_DEFAULT
    if not value.strip().isdecimal() or int(value) < 1:
        raise ConfigError(f"{DEGREE_CAP_ENV} must be a positive integer, got {value!r}")
    return int(value)
