"""``Poly`` cells, the reference arithmetic in ``polyref``, the order, metrics."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from diffseq import groebner, operators
from diffseq.bundles import free_basis
from diffseq.config import EXPONENT_CAP, ExponentCapExceeded
from diffseq.poly import ConstantMetric, Poly, mono_key
from polyref import degree, leading_monomial, monomial, mul, negate_vars, variable

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def monos(n, max_deg=4):
    return st.tuples(*[st.integers(0, max_deg) for _ in range(n)])


def polys(n, max_terms=5):
    coef = st.integers(-9, 9).map(Fraction)
    term = st.tuples(monos(n, 3), coef)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((monomial(n, m, c) for m, c in ts), Poly.zero(n)))


def test_degrevlex_on_degree_two_in_three_variables():
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for hi, lo in zip(chain, chain[1:]):
        assert mono_key(hi) > mono_key(lo)


def test_order_is_degree_first():
    assert mono_key((0, 0, 3)) < mono_key((2, 1, 0))


@given(monos(3), monos(3), monos(3))
def test_order_respects_multiplication(a, b, c):
    if mono_key(a) == mono_key(b):
        assert a == b
        return
    hi, lo = (a, b) if mono_key(a) > mono_key(b) else (b, a)
    assert mono_key(tuple(map(add, hi, c))) > mono_key(tuple(map(add, lo, c)))


@given(polys(3), polys(3), polys(3))
def test_ring_axioms(p, q, r):
    assert mul(p, q) == mul(q, p)
    assert mul(p, q + r) == mul(p, q) + mul(p, r)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))


@given(polys(3))
def test_negate_vars_is_an_involution(p):
    assert negate_vars(negate_vars(p)) == p


@given(polys(3), polys(3))
def test_negate_vars_is_multiplicative(p, q):
    assert negate_vars(mul(p, q)) == mul(negate_vars(p), negate_vars(q))


@given(polys(2), polys(2))
def test_diff_satisfies_leibniz(p, q):
    lhs = mul(p, q).diff(1)
    rhs = mul(p.diff(1), q) + mul(p, q.diff(1))
    assert lhs == rhs


def test_apply_derivation_matches_iterated_diff():
    f = monomial(2, (3, 2), Fraction(5)) + variable(2, 1)
    expected = f.diff(1).diff(1).diff(2)
    assert f.apply_derivation((2, 1)) == expected


@given(polys(2), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_is_a_ring_map(p, a, b):
    pt = [Fraction(a), Fraction(b)]
    assert mul(p, p).evaluate(pt) == p.evaluate(pt) ** 2


def test_euclidean_metric_is_the_identity():
    w = ConstantMetric.euclidean(3)
    assert [[w.lower(i, j) for j in range(1, 4)] for i in range(1, 4)] == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_metric_set_up_eliminates_once(monkeypatch):
    from diffseq import linalg

    calls = []
    rref = linalg.rref

    def counting(rows, ncols):
        calls.append(ncols)
        return rref(rows, ncols)

    monkeypatch.setattr(linalg, "rref", counting)
    w = ConstantMetric([[2, 1], [1, 3]])
    assert w.upper(1, 1) == Fraction(3, 5)
    assert calls == [2]


def test_a_singular_metric_is_refused():
    with pytest.raises(ValueError, match="nondegenerate"):
        ConstantMetric([[1, 0], [0, 0]])


def test_minkowski_metric_signature_and_inverse():
    w = ConstantMetric.minkowski(4)
    diag = [w.lower(i, i) for i in range(1, 5)]
    assert sorted(diag) == [-1, 1, 1, 1]
    for i in range(1, 5):
        for j in range(1, 5):
            s = sum(w.lower(i, k) * w.upper(k, j) for k in range(1, 5))
            assert s == (1 if i == j else 0)


def test_leading_monomial_and_coefficient():
    p = monomial(3, (1, 1, 0), Fraction(3)) + monomial(3, (0, 0, 2))
    assert leading_monomial(p) == (1, 1, 0)
    assert p.terms[leading_monomial(p)] == 3


def test_zero_polynomial_properties():
    z = Poly.zero(3)
    assert z.is_zero()
    assert degree(z) == -1


def test_products_past_the_exponent_cap_raise():
    at_cap = mul(monomial(2, (EXPONENT_CAP - 1, 0)), variable(2, 1))
    assert leading_monomial(at_cap) == (EXPONENT_CAP, 0)
    with pytest.raises(ExponentCapExceeded):
        mul(at_cap, variable(2, 1))
    with pytest.raises(ExponentCapExceeded):
        mul(monomial(2, (EXPONENT_CAP, 1)), variable(2, 1))


def test_a_bool_coefficient_is_refused():
    """``True`` is an int to Python; as a coefficient it would print ``x1``."""
    for make in (lambda: Poly(2, {(1, 0): True}),
                 lambda: variable(2, 1).scale(False),
                 lambda: ConstantMetric([[True, 0], [0, 1]])):
        with pytest.raises(TypeError, match="got bool"):
            make()


def test_a_negative_exponent_is_refused_before_any_completion(monkeypatch):
    """``Poly(2, {(-1, 2): 1})`` would print ``x1*x2^2``, and a basis holding
    it would pack a term that borrows across its exponent fields."""
    def no_completion(*args, **kwargs):
        raise AssertionError("a completion ran")

    monkeypatch.setattr(groebner, "ModuleGB", no_completion)
    with pytest.raises(ValueError, match=r"monomial \(-1, 2\) has a negative exponent"):
        operators.compatibility_conditions(operators.make_operator(
            "neg", 2, free_basis("U", 2, ["u"]), free_basis("S", 2, ["s1", "s2"]),
            [[Poly(2, {(-1, 2): 1})], [variable(2, 1)]]))
    with pytest.raises(ValueError, match="negative exponent"):
        monomial(3, (2, 0, -1))
