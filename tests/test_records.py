"""Frozen records (``config.record``) and the cost of a cold import."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from diffseq.bundles import BundleBasis, free_basis, riemann_candidate_space
from diffseq.config import record
from diffseq.groebner import GradedPresentation
from diffseq.operators import make_operator
from diffseq.poly import Poly
from diffseq.sequences import (
    DoubleDualityReport, ParametrizationVerdict, SequenceReport, SequenceStep, killing)
from diffseq.spencer import CohomologyNode
from polyref import variable

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import diffseq.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_positional_and_keyword_construction_agree():
    a = CohomologyNode(1, 2, 3, 0, 1)
    b = CohomologyNode(r=1, dim=2, rank_out=3, rank_in=0, h=1)
    c = CohomologyNode(1, 2, rank_out=3, rank_in=0, h=1)
    assert a == b == c
    assert (a.r, a.dim, a.rank_out, a.rank_in, a.h) == (1, 2, 3, 0, 1)


def test_wrong_arguments_raise_type_error():
    for args, kwargs in (((1, 2, 3, 0), {}), ((1, 2, 3, 0, 1, 9), {}),
                         ((1, 2, 3, 0, 1), {"r": 1}),
                         ((1, 2, 3, 0), {"h": 1, "extra": 2})):
        with pytest.raises(TypeError):
            CohomologyNode(*args, **kwargs)


def test_class_level_defaults_fill_missing_fields():
    basis = BundleBasis(label="T", n=2, element_labels=("v1", "v2"))
    assert basis.ambient_labels is BundleBasis.ambient_labels is None
    assert (basis.ambient_from_coords, basis.free_columns, basis.constraints) == (
        None, None, None)
    assert basis.is_free and basis.dim == basis.ambient_dim == 2
    given = BundleBasis("T", 2, ("v1",), ("a1", "a2"), ({0: 1}, {}), (0,))
    assert given.ambient_labels == ("a1", "a2") and given.constraints is None


def test_chain_and_double_duality_records_hold_no_copies():
    # each fact lives once: a step's order and dims are its operator's, a
    # report's depth is len(verdicts), a verdict's containment is its ok
    assert tuple(SequenceStep.__annotations__) == ("operator",)
    assert tuple(SequenceReport.__annotations__) == (
        "name", "n", "steps", "dims", "orders", "terminated", "euler_characteristic")
    assert tuple(ParametrizationVerdict.__annotations__) == (
        "ok", "composes_to_zero", "target_name", "candidate_name")
    assert tuple(DoubleDualityReport.__annotations__) == ("name", "n", "verdicts", "ok")
    assert not hasattr(SequenceReport, "chain_string")


def test_post_init_normalises_presentation_shifts():
    x1 = variable(2, 1)
    pres = GradedPresentation.from_rows(n=2, ambient_rank=2, rows=[[x1, x1]])
    assert pres.shifts == (0, 0)
    assert pres.generators == ((x1, x1),)
    shifted = GradedPresentation.from_rows(2, 2, [[x1, Poly.zero(2)]], [1, 3])
    assert shifted.shifts == (1, 3)
    with pytest.raises(ValueError):
        GradedPresentation.from_rows(n=2, ambient_rank=2, rows=[[x1, x1]], shifts=(0,))


def test_presentation_rows_are_one_cached_view_of_the_vectors():
    x1, x2 = variable(2, 1), variable(2, 2)
    pres = GradedPresentation.from_rows(2, 2, [[x1, x2.scale(Fraction(1, 2))]])
    assert pres.vectors == ((2, {(0, (1, 0)): 2, (1, (0, 1)): 1}),)
    assert pres.generators is pres.generators
    assert pres.generators == ((x1, x2.scale(Fraction(1, 2))),)
    same = GradedPresentation(2, 2, pres.vectors)
    assert same == pres and hash(same) == hash(pres)
    assert same != GradedPresentation(2, 2, ((1, {(0, (1, 0)): 1}),))
    assert repr(same) == ("GradedPresentation(n=2, ambient_rank=2, "
                          "generators=((x1, 1/2*x2),), shifts=(0, 0))")
    with pytest.raises(ValueError, match="arity"):
        GradedPresentation.from_rows(2, 2, [[x1]])


def test_repr_names_every_field():
    assert repr(CohomologyNode(r=1, dim=2, rank_out=3, rank_in=0, h=1)) == \
        "CohomologyNode(r=1, dim=2, rank_out=3, rank_in=0, h=1)"
    assert repr(free_basis("T", 2, ["e1", "e2"])) == (
        "BundleBasis(label='T', n=2, element_labels=('e1', 'e2'), "
        "ambient_labels=None, ambient_from_coords=None, free_columns=None, "
        "constraints=None)")


def test_equality_and_hash_follow_the_field_tuple():
    a = CohomologyNode(1, 2, 3, 0, 1)
    assert a != CohomologyNode(1, 2, 3, 0, 2)
    assert hash(a) == hash(CohomologyNode(1, 2, 3, 0, 1)) == hash((1, 2, 3, 0, 1))
    assert len({a, CohomologyNode(1, 2, 3, 0, 1)}) == 1

    @record
    class Other:
        r: int
        dim: int
        rank_out: int
        rank_in: int
        h: int

    assert Other(1, 2, 3, 0, 1) != a   # same fields, different class


def test_own_eq_and_repr_are_kept():
    op = killing(2)
    same = make_operator("renamed", 2, op.source, op.target, op.rows)
    assert op == same   # OperatorMatrix compares bundles and symbols only
    assert repr(op).startswith("OperatorMatrix(killing: T -> S2T*")
    assert isinstance(hash(op), int)


def test_own_hash_is_kept():
    a = riemann_candidate_space(4)
    back = a.dual().dual()   # same label and elements, no ambient fields
    assert back == a and hash(back) == hash(a) == hash(a.key())
    assert back in {a}


def test_records_are_frozen():
    a = CohomologyNode(1, 2, 3, 0, 1)
    with pytest.raises(AttributeError):
        a.r = 5
    with pytest.raises(AttributeError):
        a.new_field = 5
    with pytest.raises(AttributeError):
        del a.r
    assert a.r == 1
