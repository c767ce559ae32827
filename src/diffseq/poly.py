"""Multivariate polynomials with exact rational coefficients.

A monomial is a tuple of non-negative exponents, one slot per commuting
symbol.  The same representation serves two readings: formal derivative
symbols (an operator entry ``chi^mu`` stands for the constant-coefficient
derivative ``d_mu``) and ordinary coordinate polynomials that operators are
applied to.

The canonical term order is degree–reverse–lexicographic: compare total
degree first; on ties the monomial whose *last* differing exponent is smaller
wins.  So ``x1 > x2 > ... > xn`` as monomials, ``(1,1) < (2,0)``, and
``(0,0)`` is minimal.  The order is multiplicative, which is what the basis
engines rely on.
"""

from fractions import Fraction
from functools import lru_cache, update_wrapper
from operator import le

from . import linalg
from .config import EXPONENT_CAP, ExponentCapExceeded

Mono = tuple


def mono_key(m):
    """Sort key realizing degrevlex: ``a > b`` iff ``mono_key(a) > mono_key(b)``."""
    return (sum(m),) + tuple(-e for e in reversed(m))


def compare_monomials(a, b):
    """Return -1, 0, or 1 comparing two monomials in degrevlex."""
    ka, kb = mono_key(a), mono_key(b)
    return (ka > kb) - (ka < kb)


def mono_mul(a, b):
    out = tuple(x + y for x, y in zip(a, b))
    if any(e > EXPONENT_CAP for e in out):
        raise ExponentCapExceeded(f"exponent above {EXPONENT_CAP} in {out}")
    return out


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be rational, got {type(c).__name__}")


class Poly:
    """Immutable-by-convention polynomial: dict monomial -> nonzero Fraction."""

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
                    clean[m] = c
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: _as_fraction(c)})

    @classmethod
    def one(cls, n):
        return cls.constant(n, 1)

    @classmethod
    def variable(cls, n, i):
        """The i-th symbol, 1-based."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, n, exps, c=1):
        return cls(n, {tuple(exps): _as_fraction(c)})

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

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        r = Poly.__new__(Poly)
        r.n, r.terms = self.n, {m: -c for m, c in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = out.get(m)
                s = c1 * c2 if v is None else v + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        r = Poly.__new__(Poly)
        r.n, r.terms = self.n, out
        return r

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _as_fraction(c)
        r = Poly.__new__(Poly)
        r.n = self.n
        r.terms = {m: v * c for m, v in self.terms.items()} if c else {}
        return r

    def negate_vars(self):
        """Substitute every symbol by its negative: ``p(chi) -> p(-chi)``."""
        r = Poly.__new__(Poly)
        r.n = self.n
        r.terms = {m: (c if sum(m) % 2 == 0 else -c) for m, c in self.terms.items()}
        return r

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

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
    """Symmetric nondegenerate rational matrix with cached inverse and det."""

    __slots__ = ("n", "entries", "inverse", "det", "name")

    def __init__(self, entries, name="custom"):
        rows = [tuple(_as_fraction(v) for v in row) for row in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("metric matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("metric matrix must be symmetric")
        self.n = n
        self.entries = tuple(rows)
        inv = linalg.invert([list(r) for r in rows])
        self.inverse = tuple(tuple(v for v in row) for row in inv)
        self.det = linalg.det(rows, inv)
        self.name = name

    @classmethod
    @lru_cache(maxsize=None)
    def euclidean(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   name="euclidean")

    @classmethod
    def minkowski(cls, n):
        """diag(1, .., 1, -1): the last direction carries the minus sign."""
        ent = [[0] * n for _ in range(n)]
        for i in range(n):
            ent[i][i] = 1
        ent[n - 1][n - 1] = -1
        return cls(ent, name="minkowski")

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
    """``lru_cache`` for a pure function ``body(n, metric=None)``, keyed on
    the resolved metric, so ``None`` and the euclidean metric share one entry.
    The decorated function stays a plain function with ``body``'s defaults.
    Results are shared for the life of the process: do not mutate them."""
    cached = lru_cache(maxsize=None)(body)

    def call(n, metric=None):
        return cached(n, resolve_metric(n, metric))

    call.__defaults__ = body.__defaults__
    return update_wrapper(call, body)
