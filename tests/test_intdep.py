from fractions import Fraction

import pytest

from conftest import FAMILY_ALPHAS
from gaussmanin import analyze, cyclic_symmetric_spec
from gaussmanin.intdep import (
    DependenceRelation,
    LinearForms,
    dependence_relation,
    linear_forms,
    verify_identity,
)
from gaussmanin.scalars import LaurentLambda


def test_linear_forms_e2(e2):
    forms = linear_forms(e2)
    # m1 = -3f + 2u0 + u1, m2 = -2f + u0 + u1, m3 = 6f - 3u0 - 2u1
    assert forms.rows[0] == (Fraction(-3), Fraction(2), Fraction(1))
    assert forms.rows[1] == (Fraction(-2), Fraction(1), Fraction(1))
    assert forms.rows[2] == (Fraction(6), Fraction(-3), Fraction(-2))
    assert forms.format_row(2, 2) == "6·f - 3·u0 - 2·u1"


def test_linear_forms_e3_lambda_row(e3):
    forms = linear_forms(e3)
    assert forms.f_coefficient(3) == -12


def test_linear_forms_zero_on_H(e4):
    rel = analyze(e4)
    forms = linear_forms(e4)
    for j in range(e4.n_monomials):
        assert (forms.f_coefficient(j) == 0) == (j in rel.H)


def test_dependence_relation_e2(e2):
    relation = dependence_relation(e2)
    assert relation.degree == 6
    assert relation.is_monic()
    assert relation.factored_str() == \
        "(6·f - 3·u0 - 2·u1)^6 - λ^6·(-3·f + 2·u0 + u1)^3·(-2·f + u0 + u1)^2 = 0"


def test_dependence_relation_degrees(e2, e3, e4, quintic):
    for spec in (e2, e3, e4, quintic):
        rel = analyze(spec)
        relation = dependence_relation(spec)
        assert relation.degree == rel.d + rel.h
        assert relation.is_monic()


def test_dependence_relation_e61_degree_76(e61):
    relation = dependence_relation(e61)
    assert relation.degree == 76
    assert relation.is_monic()


def test_verify_identity_corpus(e2, e3, e4):
    assert verify_identity(dependence_relation(e2))
    assert verify_identity(dependence_relation(e3))
    assert verify_identity(dependence_relation(e4))


def test_verify_identity_family_member():
    spec = cyclic_symmetric_spec(FAMILY_ALPHAS[1])
    assert verify_identity(dependence_relation(spec))


def test_relation_lambda_exponent(e2, e3):
    assert dependence_relation(e2).r == 6
    assert dependence_relation(e3).r == -12


def test_relation_coefficients_shape(e2):
    relation = dependence_relation(e2)
    # the top coefficient is the pure rational 1; the weight-6 side enters
    # lower degrees with a lambda^6 multiplier
    for coeff in relation.coefficients[6].values():
        assert coeff.is_constant()
    assert any(6 in c.coeffs for c in relation.coefficients[5].values())
    assert any(6 in c.coeffs for c in relation.coefficients[0].values())


def test_relation_json(e2):
    relation = dependence_relation(e2)
    data = relation.to_json()
    assert data["degree"] == 6
    top = data["coefficients"][6]["terms"]
    assert top == [{"u": [0, 0], "c": [[0, "1"]]}]
    assert len(data["factored"]["Delta"]) == 1
    assert len(data["factored"]["delta"]) == 2


def test_expanded_str_contains_leading(e2):
    text = dependence_relation(e2).expanded_str()
    assert text.startswith("(1) · f^6")


def test_relation_json_roundtrip(e2):
    relation = dependence_relation(e2)
    back = DependenceRelation.from_json(relation.to_json(), e2)
    assert back.degree == relation.degree and back.r == relation.r
    assert back.coefficients == relation.coefficients


def test_verify_identity_random_specs():
    import random
    from conftest import random_spec

    rng = random.Random(77)
    for _ in range(3):
        spec = random_spec(rng, max_vars=3, max_entry=5, max_weight=12)
        assert verify_identity(dependence_relation(spec))
