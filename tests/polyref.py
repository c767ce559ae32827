"""Reference polynomial arithmetic, which ``Poly``, a read-only cell view,
does not carry; ``test_poly`` checks it."""

from fractions import Fraction
from itertools import product
from operator import add

from diffseq.config import EXPONENT_CAP, ExponentCapExceeded
from diffseq.poly import Poly, mono_key


def monomial(n, exps=(), c=1):
    """``c * x^exps``; the constant ``c`` with no exponents."""
    return Poly(n, {tuple(exps) or (0,) * n: c})


def variable(n, i):
    """The i-th symbol, 1-based."""
    return monomial(n, [int(k == i) for k in range(1, n + 1)])


def mul(p, *factors):
    """The product; an exponent above ``EXPONENT_CAP`` raises."""
    for q in factors:
        terms = {}
        for (m1, c1), (m2, c2) in product(p.terms.items(), q.terms.items()):
            m = tuple(map(add, m1, m2))
            if max(m, default=0) > EXPONENT_CAP:
                raise ExponentCapExceeded(f"exponent above {EXPONENT_CAP} in {m}")
            terms[m] = terms.get(m, 0) + c1 * c2
        p = Poly(p.n, terms)
    return p


def random_poly(rng, n, deg, tries, bound):
    """A sum of up to ``tries`` random terms of degree <= ``deg``."""
    p = Poly.zero(n)
    for _ in range(tries):
        mono = tuple(rng.randint(0, deg) for _ in range(n))
        if sum(mono) <= deg:
            p = p + monomial(n, mono, Fraction(rng.randint(-bound, bound)))
    return p


def sub(p, q):
    return p + q.scale(-1)


def negate_vars(p):
    """``p(chi) -> p(-chi)``."""
    return Poly(p.n, {m: -c if sum(m) % 2 else c for m, c in p.terms.items()})


def degree(p):
    """Total degree; -1 for the zero polynomial."""
    return max(map(sum, p.terms), default=-1)


def leading_monomial(p):
    return max(p.terms, key=mono_key)
