"""Exact polynomial arithmetic and the monomial order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffseq.config import EXPONENT_CAP, ExponentCapExceeded
from diffseq.poly import (
    ConstantMetric,
    Poly,
    compare_monomials,
    mono_key,
    mono_mul,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def monos(n, max_deg=4):
    return st.tuples(*[st.integers(0, max_deg) for _ in range(n)])


def polys(n, max_terms=5):
    coef = st.integers(-9, 9).map(Fraction)
    term = st.tuples(monos(n, 3), coef)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((Poly.monomial(n, m, c) for m, c in ts), Poly.zero(n)))


def test_degrevlex_on_degree_two_in_three_variables():
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for hi, lo in zip(chain, chain[1:]):
        assert compare_monomials(hi, lo) > 0


def test_order_is_degree_first():
    assert compare_monomials((0, 0, 3), (2, 1, 0)) < 0


@given(monos(3), monos(3), monos(3))
def test_order_respects_multiplication(a, b, c):
    if mono_key(a) == mono_key(b):
        assert a == b
        return
    hi, lo = (a, b) if compare_monomials(a, b) > 0 else (b, a)
    assert compare_monomials(mono_mul(hi, c), mono_mul(lo, c)) > 0


@given(polys(3), polys(3), polys(3))
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polys(3))
def test_negate_vars_is_an_involution(p):
    assert p.negate_vars().negate_vars() == p


@given(polys(3), polys(3))
def test_negate_vars_is_multiplicative(p, q):
    assert (p * q).negate_vars() == p.negate_vars() * q.negate_vars()


@given(polys(2), polys(2))
def test_diff_satisfies_leibniz(p, q):
    lhs = (p * q).diff(1)
    rhs = p.diff(1) * q + p * q.diff(1)
    assert lhs == rhs


def test_apply_derivation_matches_iterated_diff():
    f = Poly.monomial(2, (3, 2), Fraction(5)) + Poly.variable(2, 1)
    expected = f.diff(1).diff(1).diff(2)
    assert f.apply_derivation((2, 1)) == expected


@given(polys(2), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_is_a_ring_map(p, a, b):
    pt = [Fraction(a), Fraction(b)]
    assert (p * p).evaluate(pt) == p.evaluate(pt) ** 2


def test_euclidean_metric_is_the_identity():
    w = ConstantMetric.euclidean(3)
    assert [[w.lower(i, j) for j in range(1, 4)] for i in range(1, 4)] == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert w.det == 1


def test_metric_determinants_are_exact_fractions():
    assert ConstantMetric.euclidean(4).det == 1
    assert ConstantMetric.minkowski(4).det == -1
    w = ConstantMetric([[2, 1, 0], [1, Fraction(1, 2), 3], [0, 3, 0]])
    assert w.det == -18   # expansion along the last row: -3 * (2*3 - 0*1)
    assert ConstantMetric([[0, 1], [1, 0]]).det == -1
    for m in (ConstantMetric.euclidean(4), ConstantMetric.minkowski(4), w):
        assert type(m.det) is Fraction


def test_minkowski_metric_signature_and_inverse():
    w = ConstantMetric.minkowski(4)
    diag = [w.lower(i, i) for i in range(1, 5)]
    assert sorted(diag) == [-1, 1, 1, 1]
    for i in range(1, 5):
        for j in range(1, 5):
            s = sum(w.lower(i, k) * w.upper(k, j) for k in range(1, 5))
            assert s == (1 if i == j else 0)


def test_leading_monomial_and_coefficient():
    p = Poly.monomial(3, (1, 1, 0), Fraction(3)) + Poly.monomial(3, (0, 0, 2))
    assert p.leading_monomial() == (1, 1, 0)
    assert p.coefficient(p.leading_monomial()) == 3


def test_zero_polynomial_properties():
    z = Poly.zero(3)
    assert z.is_zero()
    assert z.degree() == -1


def test_products_past_the_exponent_cap_raise():
    at_cap = Poly.monomial(2, (EXPONENT_CAP - 1, 0)) * Poly.variable(2, 1)
    assert at_cap.leading_monomial() == (EXPONENT_CAP, 0)
    with pytest.raises(ExponentCapExceeded):
        at_cap * Poly.variable(2, 1)
    with pytest.raises(ExponentCapExceeded):
        mono_mul((EXPONENT_CAP, 1), (1, 0))
