import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_monic_chain
from gaussmanin import build_operator, cyclic_symmetric_spec
from gaussmanin.abalgebra import ABElement, right_divide
from gaussmanin.errors import (
    HIsZero,
    LambdaZero,
    NotRegular,
    PreconditionError,
    PreconditionInitialForm,
    TruncationTooSmall,
)
from gaussmanin.factor import (
    FactorizationResult,
    IrregularSplit,
    bernstein_element,
    hensel_decompose,
    is_regular,
    regular_quotient_pipeline,
    split_irregular,
)
from gaussmanin.scalars import LaurentLambda, UniPoly

A = ABElement.a()
B = ABElement.b()


def _random_tail(rng, max_b, max_a, density=0.5):
    terms = {}
    for k in range(1, max_b + 1):
        for i in range(max_a + 1):
            if rng.random() < density:
                terms[(k, i)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ABElement(terms)


def _monic_with_class(rng, cls: UniPoly, max_b=6) -> ABElement:
    return ABElement.from_poly_in_a(cls) + _random_tail(rng, max_b, cls.degree - 1)


# ---------------------------------------------------------------------------
# hensel_decompose
# ---------------------------------------------------------------------------

def test_hensel_two_classes_reconstruct():
    rng = random.Random(41)
    cls = UniPoly.from_roots([Fraction(1), Fraction(2)])
    p = _monic_with_class(rng, cls)
    res = hensel_decompose(p, 16)
    assert [f.mod_b_class.format("a") for f in res.factors] == ["a - 1", "a - 2"]
    assert (res.product() - p.truncate(16)).is_zero()
    assert [f.rank for f in res.factors] == [1, 1]


def test_hensel_single_factor_is_input():
    p = A - ABElement.one() * Fraction(7, 2)
    res = hensel_decompose(p, 8)
    assert len(res.factors) == 1
    assert res.factors[0].element == p.truncate(8)

    hom = A * A
    res = hensel_decompose(hom, 8)
    assert len(res.factors) == 1
    assert res.factors[0].mod_b_class == UniPoly.x_power(2)


def test_hensel_requires_specialized_lambda():
    # λ cannot reach hensel_decompose: an element refuses a λ coefficient
    with pytest.raises(TypeError):
        A - ABElement.one() * LaurentLambda.monomial(1)
    with pytest.raises(TypeError):
        ABElement({(0, 1): 1, (0, 0): LaurentLambda.monomial(1)})


def test_hensel_requires_order():
    with pytest.raises(TruncationTooSmall):
        hensel_decompose(A, 1)


def test_hensel_random_instances():
    rng = random.Random(42)
    for _ in range(10):
        roots = rng.sample([Fraction(v) for v in (-3, -2, -1, 1, 2, 3)], rng.randint(2, 3))
        mults = [rng.randint(1, 2) for _ in roots]
        cls = UniPoly.const(Fraction(1))
        pieces = []
        for root, m in zip(roots, mults):
            piece = UniPoly.from_roots([root] * m)
            pieces.append(piece)
            cls = cls * piece
        p = _monic_with_class(rng, cls)
        res = hensel_decompose(p, 16)
        assert (res.product() - p.truncate(16)).is_zero()
        assert sorted(f.mod_b_class.coeffs for f in res.factors) == \
            sorted(piece.coeffs for piece in pieces)
        for f in res.factors:
            assert f.element.mod_b() == f.mod_b_class
        assert sum(f.rank for f in res.factors) == p.a_degree


def test_hensel_ordering_permutations():
    from gaussmanin.scalars import coprime_split

    rng = random.Random(43)
    cls = UniPoly.from_roots([Fraction(0), Fraction(1), Fraction(-1)])
    p = _monic_with_class(rng, cls)
    pieces = coprime_split(p.mod_b())
    for perm in itertools.permutations(pieces):
        res = hensel_decompose(p, 12, classes=list(perm))
        assert (res.product() - p.truncate(12)).is_zero()
        assert [f.mod_b_class for f in res.factors] == list(perm)


def test_hensel_refuses_classes_that_do_not_multiply_to_p():
    rng = random.Random(44)
    p = _monic_with_class(rng, UniPoly.from_roots([Fraction(1), Fraction(2)]))
    wrong = [UniPoly.from_roots([Fraction(1)]), UniPoly.from_roots([Fraction(3)])]
    with pytest.raises(PreconditionError, match="do not multiply"):
        hensel_decompose(p, 12, classes=wrong)


# ---------------------------------------------------------------------------
# split_irregular
# ---------------------------------------------------------------------------

def test_split_irregular_cubic_example():
    p = A ** 3 + B * A - B * B
    split = split_irregular(p, 8)
    assert (split.q, split.d, split.h, split.rho) == (1, 2, 1, Fraction(1))
    Z = split.left - ABElement.term(1, 0, trunc=8)
    assert Z.a_degree == 2 and Z.ab_valuation >= 2
    Q = split.right - ABElement.linear(1, -1).truncate(8)
    assert Q.a_degree == 0 and Q.ab_valuation >= 2
    assert (split.left * split.right - p.truncate(8)).is_zero()
    # leading coefficients frozen from the recursion by hand
    assert split.left.coeff(0, 2) == 1 and split.left.coeff(1, 1) == 1
    assert split.left.coeff(2, 0) == 3
    assert split.right.coeff(2, 0) == 6


def test_split_irregular_random_homogeneous_sums():
    rng = random.Random(44)
    for _ in range(10):
        d = rng.randint(1, 5)
        h = rng.randint(1, 3)
        q = rng.randint(0, d - 1) if d > 1 else 0
        rho = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        p_dh = random_monic_chain(rng, d + h)
        p_dq = random_monic_chain(rng, d - q)
        p = p_dh + p_dq.shift_b(q) * rho
        split = split_irregular(p, 12)
        assert (split.q, split.d, split.h) == (q, d, h)
        assert (split.left * split.right - p.truncate(12)).is_zero()
        Z = split.left - ABElement.term(q, 0, rho, trunc=12)
        assert Z.a_degree == q + h
        assert Z.ab_valuation >= q + 1
        Q = split.right - ABElement(dict(p_dq.terms), trunc=12)
        if not Q.is_zero():
            assert Q.a_degree <= d - q - 1
            assert Q.ab_valuation >= d - q + 1
        assert split.irregular_rank == q + h
        assert split.regular_rank == d - q


def test_split_irregular_rejects_homogeneous():
    with pytest.raises(HIsZero):
        split_irregular(random_monic_chain(random.Random(45), 3), 8)


def test_split_irregular_rejects_wrong_class():
    # class a^3 - 3a^2 + 2a carries extra eigenvalues the splitting cannot see
    p = A * (A - ABElement.one()) * (A - ABElement.one() * 2) + B
    with pytest.raises(PreconditionInitialForm):
        split_irregular(p, 8)


def test_split_irregular_accepts_q_zero_example_shape():
    # P_{d+h} + rho·P_d has class a^{d+h} + rho·a^d: the allowed exception
    rng = random.Random(48)
    p = random_monic_chain(rng, 3) + random_monic_chain(rng, 2) * Fraction(-2)
    split = split_irregular(p, 10)
    assert split.q == 0 and split.rho == -2
    assert (split.left * split.right - p.truncate(10)).is_zero()


# ---------------------------------------------------------------------------
# regularity and Bernstein elements
# ---------------------------------------------------------------------------

def test_is_regular():
    assert is_regular(random_monic_chain(random.Random(46), 4))
    assert not is_regular(A ** 3 + B * A - B * B)
    assert is_regular(A * A + B ** 3)   # initial form is the degree-2 part a^2


def test_bernstein_element():
    chain = random_monic_chain(random.Random(47), 3)
    assert bernstein_element(chain) == chain
    p = ABElement.linear(1, -1) * ABElement.linear(1, -2) + (B ** 3) * A
    assert bernstein_element(p) == ABElement.linear(1, -1) * ABElement.linear(1, -2)
    with pytest.raises(NotRegular):
        bernstein_element(A ** 3 + B * A - B * B)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_e2(e2):
    op = build_operator(e2)
    report = regular_quotient_pipeline(op, Fraction(1), 16)
    assert report.operator_rank == 6
    assert [f.rank for f in report.factorization.factors] == [5, 1]
    classes = [f.mod_b_class for f in report.factorization.factors]
    assert classes[0] == UniPoly.x_power(5)
    assert classes[1] == UniPoly((Fraction(1, 432), Fraction(1)))
    zb = report.zero_block
    assert zb.rank == 5
    assert zb.divides_P_d
    quot, rem = right_divide(op.P_d, zb.bernstein)
    assert rem.is_zero() and quot == ABElement.one()
    bp = zb.bernstein_poly.to_rational()
    assert bp.is_monic() and bp.degree == 5


def test_pipeline_quintic():
    op = build_operator(cyclic_symmetric_spec((5, 0, 0, 0)))
    report = regular_quotient_pipeline(op, Fraction(1), 16)
    assert [f.rank for f in report.factorization.factors] == [4, 1]
    assert report.factorization.factors[1].mod_b_class == \
        UniPoly((Fraction(-1, 3125), Fraction(1)))
    assert report.zero_block.divides_P_d


def test_pipeline_rejects_zero_lambda(e2):
    op = build_operator(e2)
    with pytest.raises(LambdaZero):
        regular_quotient_pipeline(op, Fraction(0), 8)


def test_pipeline_other_lambda(e2):
    op = build_operator(e2)
    report = regular_quotient_pipeline(op, Fraction(3, 2), 12)
    assert report.zero_block.divides_P_d
    val = Fraction(-1, 432) * Fraction(3, 2) ** 6
    assert report.factorization.factors[1].mod_b_class == UniPoly((-val, Fraction(1)))


def test_factorization_json_roundtrip(e2):
    op = build_operator(e2)
    res = hensel_decompose(op.specialized(Fraction(1)), 8)
    back = FactorizationResult.from_json(res.to_json())
    assert [f.element for f in back.factors] == [f.element for f in res.factors]
    assert back.trunc == res.trunc

    split = split_irregular(A ** 3 + B * A - B * B, 8)
    back_split = IrregularSplit.from_json(split.to_json())
    assert back_split.left == split.left and back_split.right == split.right
    assert (back_split.q, back_split.d, back_split.h) == (split.q, split.d, split.h)


def test_default_truncation_rule():
    from gaussmanin.factor import default_truncation

    p = A ** 3 + B * A - B * B
    assert default_truncation(p) == 2 * 3 + 4
    res = hensel_decompose(p)
    assert res.trunc == 10
    split = split_irregular(p)
    assert split.trunc == 10


def test_pipeline_report_json_roundtrip(e2):
    from gaussmanin import build_operator
    from gaussmanin.factor import PipelineReport

    op = build_operator(e2)
    report = regular_quotient_pipeline(op, Fraction(1), 8)
    back = PipelineReport.from_json(report.to_json())
    assert back.zero_block.bernstein == report.zero_block.bernstein
    assert back.mod_b_class == report.mod_b_class
    assert [f.element for f in back.factorization.factors] == \
        [f.element for f in report.factorization.factors]


@pytest.mark.slow
def test_pipeline_e61_full(e61):
    from gaussmanin import build_operator

    op = build_operator(e61)
    report = regular_quotient_pipeline(op, Fraction(1), 63)
    assert [f.rank for f in report.factorization.factors] == [61, 15]
    assert report.zero_block.regular
    assert report.zero_block.divides_P_d
