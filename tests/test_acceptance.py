"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and enforcing its runtime bound."""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import FAMILY_ALPHAS, random_monic_chain
from gaussmanin import (
    analyze,
    build_operator,
    cyclic_symmetric_spec,
    load_spec_file,
    symmetric_family_bracket,
    symmetric_family_operator,
)
from gaussmanin.abalgebra import ABElement, right_divide, theta_k
from gaussmanin.critical import check_singular_equation, critical_values
from gaussmanin.factor import hensel_decompose, regular_quotient_pipeline, split_irregular
from gaussmanin.intdep import dependence_relation, verify_identity
from gaussmanin.ode import euler_form
from gaussmanin.scalars import UniPoly, coprime_split
from conftest import SPEC_DIR


@contextmanager
def criterion(number: int, time_limit: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {number}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < time_limit, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE CRITERION {number}: PASS ({elapsed:.2f}s)")


def test_criterion_1_headline_example():
    with criterion(1, 1.0):
        spec = load_spec_file(SPEC_DIR / "e61.json")
        rel = analyze(spec)
        assert rel.d == 61
        assert rel.h == 15
        assert rel.r == -61
        assert rel.Delta == (34, 22, 20, 0)
        assert rel.delta == (0, 0, 0, 61)
        assert rel.c == Fraction(-(61**61 * 15**15), 34**34 * 22**22 * 20**20)


def test_criterion_2_symmetric_quintic_family():
    with criterion(2, 5.0):
        lams = (Fraction(1), Fraction(2), Fraction(-3, 7))
        printed = {lam: symmetric_family_operator(5, lam) for lam in lams}
        tuples = set()
        eulers = set()
        for alpha in FAMILY_ALPHAS:
            op = build_operator(cyclic_symmetric_spec(alpha))
            tuples.add((op.d, op.h, op.r, op.c))
            eulers.add((euler_form(op.P_d), euler_form(op.P_dh)))
            # the printed closed form is for λ-coefficient |α| = 5
            for lam in lams:
                assert op.specialized(5 * lam) == printed[lam], \
                    f"{alpha} disagrees with the printed closed form at λ = {lam}"
        assert len(tuples) == 1, "family members disagree"
        assert len(eulers) == 1, "family Euler polynomials disagree"
        for lam in lams:
            bracket = symmetric_family_bracket(5, lam)
            assert theta_k(bracket, 4) == bracket
        # λ-coefficient 1: c = (|α|-4)^(|α|-4) / |α|^|α|
        assert tuples.pop() == (4, 1, 5, Fraction((5 - 4) ** (5 - 4), 5 ** 5))


def test_criterion_3_hand_verified_small_case():
    with criterion(3, 1.0):
        spec = load_spec_file(SPEC_DIR / "e2.json")
        rel = analyze(spec)
        assert (rel.d, rel.h, rel.r, rel.c) == (5, 1, 6, Fraction(-1, 432))
        report = critical_values(spec, 1.0, n_starts=60)
        target = -1.0 / 432.0
        assert any(abs(v - target) < 1e-10 for v, _ in report.found_values)
        assert check_singular_equation(spec, 1.0, tol=1e-9, n_starts=60)


def test_criterion_4_integral_dependence():
    with criterion(4, 10.0):
        e3 = load_spec_file(SPEC_DIR / "e3.json")
        relation = dependence_relation(e3)
        assert relation.degree == 13 and relation.is_monic()
        assert verify_identity(relation)
        e2 = load_spec_file(SPEC_DIR / "e2.json")
        relation2 = dependence_relation(e2)
        assert relation2.degree == 6 and relation2.is_monic()
        assert verify_identity(relation2)


def test_criterion_5_algebra_identity_suite():
    with criterion(5, 5.0):
        a, b = ABElement.a(), ABElement.b()
        for nu in range(1, 9):
            assert a ** nu * b == b * (a + b) ** nu
            assert (a + b) ** nu == a ** nu + (a ** (nu - 1) * b) * nu
            assert a ** nu * b == b * a ** nu + (b * a ** (nu - 1) * b) * nu
        for k in range(1, 11):
            assert a * b ** k - b ** k * a == b ** (k + 1) * k
        rng = random.Random(999)
        for _ in range(100):
            def rand():
                return ABElement({(rng.randint(0, 4), rng.randint(0, 4)):
                                  Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                  for _ in range(5)})
            x, y, z = rand(), rand(), rand()
            assert (x * y) * z == x * (y * z)


def _random_tail(rng, max_b, max_a):
    terms = {}
    for k in range(1, max_b + 1):
        for i in range(max_a + 1):
            if rng.random() < 0.4:
                terms[(k, i)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return ABElement(terms)


def test_criterion_6_factorization_property_suite():
    with criterion(6, 30.0):
        rng = random.Random(606)

        # (i) irregular x regular splitting on random homogeneous sums
        for _ in range(25):
            d = rng.randint(1, 5)
            h = rng.randint(1, 3)
            q = rng.randint(0, d - 1)
            rho = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            p = random_monic_chain(rng, d + h) + \
                random_monic_chain(rng, d - q).shift_b(q) * rho
            split = split_irregular(p, 12)
            assert (split.q, split.d, split.h) == (q, d, h)
            assert (split.left * split.right - p.truncate(12)).is_zero()
            Z = split.left - ABElement.term(q, 0, rho, trunc=12)
            assert Z.a_degree == q + h and Z.ab_valuation >= q + 1
            base = split.right.initial_form()
            Q = split.right - ABElement(dict(base.terms), trunc=12)
            if not Q.is_zero():
                assert Q.a_degree <= d - q - 1
                assert Q.ab_valuation >= d - q + 1

        # (ii) spectral lifting with coprime classes
        root_pool = sorted({Fraction(v, w) for v in (-3, -2, -1, 1, 2, 3)
                            for w in (1, 2)})
        for _ in range(50):
            roots = rng.sample(root_pool, rng.randint(2, 3))
            cls = UniPoly.const(Fraction(1))
            pieces = []
            for root in roots:
                piece = UniPoly.from_roots([root] * rng.randint(1, 2))
                pieces.append(piece)
                cls = cls * piece
            p = ABElement.from_poly_in_a(cls) + _random_tail(rng, 6, cls.degree - 1)
            res = hensel_decompose(p, 16)
            assert (res.product() - p.truncate(16)).is_zero()
            assert sorted(f.mod_b_class.coeffs for f in res.factors) == \
                sorted(piece.coeffs for piece in pieces)
            for f in res.factors:
                assert f.element.mod_b() == f.mod_b_class

        # (iii) every ordering of a 3-block split reconstructs
        cls = UniPoly.from_roots([Fraction(0), Fraction(1), Fraction(-2)])
        p = ABElement.from_poly_in_a(cls) + _random_tail(rng, 6, 2)
        blocks = coprime_split(p.mod_b())
        assert len(blocks) == 3
        for perm in itertools.permutations(blocks):
            res = hensel_decompose(p, 16, classes=list(perm))
            assert (res.product() - p.truncate(16)).is_zero()


def test_criterion_7_bernstein_divides():
    with criterion(7, 5.0):
        spec = load_spec_file(SPEC_DIR / "e2.json")
        op = build_operator(spec)
        report = regular_quotient_pipeline(op, Fraction(1), 16)
        zb = report.zero_block
        assert zb.divides_P_d
        quot, rem = right_divide(op.P_d, zb.bernstein)
        assert rem.is_zero()
