"""``Poly``, the read-only view of one cell of an integer row, and constant
metrics.

A monomial is a tuple of non-negative exponents, one per commuting symbol:
formal derivative symbols in an operator entry (``chi^mu`` stands for
``d_mu``), or the coordinates of the sections ``operators.apply`` acts on.
The engines store rows as integer vectors (``groebner``) and make ``Poly``
cells only when a caller reads ``rows`` or ``generators``; a cell offers
what those readers use, and no products.  Cells print in degrevlex order
(``mono_key``): total degree first; on ties the monomial whose *last*
differing exponent is smaller is the larger, so ``x1 > x2 > ... > xn`` and
``(1,1) < (2,0)``.
"""

from fractions import Fraction
from functools import update_wrapper
from operator import le

from . import linalg
from .config import cached


def mono_key(m):
    """Sort key realizing degrevlex: ``a > b`` iff ``mono_key(a) > mono_key(b)``."""
    return (sum(m),) + tuple(-e for e in reversed(m))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def _as_fraction(c):
    """An int or a ``Fraction`` as a ``Fraction``; a bool is refused, as in ``linalg``."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


class Poly:
    """Read-only polynomial: dict monomial -> nonzero Fraction."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _as_fraction(c)
                if c:
                    if len(m) != n:
                        raise ValueError(f"monomial {m} has wrong arity for n={n}")
                    if min(m, default=0) < 0:
                        raise ValueError(f"monomial {m} has a negative exponent")
                    clean[m] = c
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"cannot add polynomials in {self.n} and {other.n} variables")
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            s = c if v is None else v + c
            if s:
                out[m] = s
            else:
                del out[m]
        r = Poly.__new__(Poly)
        r.n, r.terms = self.n, out
        return r

    def scale(self, c):
        c = _as_fraction(c)
        r = Poly.__new__(Poly)
        r.n = self.n
        r.terms = {m: v * c for m, v in self.terms.items()} if c else {}
        return r

    def diff(self, i):
        """Partial derivative with respect to the i-th symbol (1-based)."""
        out = {}
        for m, c in self.terms.items():
            e = m[i - 1]
            if e:
                dm = m[: i - 1] + (e - 1,) + m[i:]
                out[dm] = out.get(dm, Fraction(0)) + c * e
        return Poly(self.n, out)

    def apply_derivation(self, mu):
        """Apply ``d_mu`` (repeated partials per the exponent tuple)."""
        p = self
        for i, e in enumerate(mu, start=1):
            for _ in range(e):
                p = p.diff(i)
                if p.is_zero():
                    return p
        return p

    def evaluate(self, point):
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                for _ in range(e):
                    v *= x
            total += v
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[m]
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(m) if e]
            body = "*".join(factors)
            if not body:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        text = " + ".join(bits)
        return text.replace("+ -", "- ")


class ConstantMetric:
    """Symmetric nondegenerate rational matrix with cached inverse.  Each
    entry of both is an ``int`` when it is whole, else a ``Fraction``, which
    equality and hashing do not see: ``Fraction(k)`` equals and hashes like ``k``."""

    __slots__ = ("n", "entries", "inverse", "name")

    def __init__(self, entries, name="custom"):
        whole = lambda c: c.numerator if c.denominator == 1 else c
        rows = [tuple(whole(_as_fraction(v)) for v in row) for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("metric matrix must be square")
        if rows != list(zip(*rows)):
            raise ValueError("metric matrix must be symmetric")
        self.n = n
        self.entries = tuple(rows)
        try:
            inv = linalg.invert([list(r) for r in rows])
        except ZeroDivisionError:
            raise ValueError("metric matrix must be nondegenerate") from None
        self.inverse = tuple(tuple(map(whole, row)) for row in inv)
        self.name = name

    @classmethod
    @cached
    def euclidean(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   name="euclidean")

    @classmethod
    def minkowski(cls, n):
        """diag(1, .., 1, -1): the last direction carries the minus sign."""
        signs = [1] * (n - 1) + [-1]
        return cls([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)],
                   name="minkowski")

    def lower(self, i, j):
        """Entry with 1-based indices."""
        return self.entries[i - 1][j - 1]

    def upper(self, i, j):
        return self.inverse[i - 1][j - 1]

    def __eq__(self, other):
        return isinstance(other, ConstantMetric) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ConstantMetric({self.name}, n={self.n})"


def resolve_metric(n, metric):
    """The metric a function of ``(n, metric)`` works with: ``None`` stands
    for the euclidean metric, and a metric of another dimension is refused."""
    if metric is None:
        return ConstantMetric.euclidean(n)
    if metric.n != n:
        raise ValueError(f"metric is for n={metric.n}, requested n={n}")
    return metric


def metric_cache(body):
    """``config.cached`` for a pure function ``body(n, metric=None)``, keyed
    on the resolved metric, so ``None`` and the euclidean metric share one
    entry.  The decorated function keeps ``body``'s defaults."""
    memo = cached(body)

    def call(n, metric=None):
        return memo(n, resolve_metric(n, metric))

    call.__defaults__ = body.__defaults__
    return update_wrapper(call, memo)   # copies cache_clear and cache_info too
