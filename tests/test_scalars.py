import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmanin.errors import NotCoprime
from gaussmanin.scalars import (
    _ROOT_PRIMES,
    LaurentLambda,
    UniPoly,
    bezout,
    coprime_split,
    mat_det,
    mat_inverse,
    mat_rank,
    mat_solve,
    poly_gcd,
    rational_roots,
    squarefree_decomposition,
)


def test_rational_arithmetic_vs_naive_reference():
    rng = random.Random(1)
    for _ in range(1000):
        p1, q1 = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        p2, q2 = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        x, y = Fraction(p1, q1), Fraction(p2, q2)
        s = x + y
        assert s.numerator * (q1 * q2) == (p1 * q2 + p2 * q1) * s.denominator
        m = x * y
        assert m.numerator * (q1 * q2) == (p1 * p2) * m.denominator
        assert math.gcd(s.numerator, s.denominator) == 1
        assert s.denominator > 0


def test_rational_huge_magnitudes():
    c = Fraction(-(61**61 * 15**15), 34**34 * 22**22 * 20**20)
    assert c * (Fraction(34**34 * 22**22 * 20**20)) == -(61**61) * 15**15
    assert math.gcd(c.numerator, c.denominator) == 1


def test_laurent_commutative_distributive():
    rng = random.Random(2)

    def rand_ll():
        return LaurentLambda({rng.randint(-10, 10): Fraction(rng.randint(-5, 5))
                              for _ in range(rng.randint(0, 4))})

    for _ in range(200):
        x, y, z = rand_ll(), rand_ll(), rand_ll()
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_laurent_basics():
    lam = LaurentLambda.monomial(1)
    x = LaurentLambda.monomial(-61) * Fraction(3, 4)
    assert x.coeffs == {-61: Fraction(3, 4)}
    assert (x * lam).coeffs == {-60: Fraction(3, 4)}
    assert (lam - lam) == 0
    assert LaurentLambda.const(5).constant_value() == 5
    with pytest.raises(ValueError):
        (lam + 1).constant_value()


def test_laurent_json_roundtrip():
    x = LaurentLambda({-3: Fraction(1, 7), 0: Fraction(-2), 5: Fraction(9, 4)})
    assert LaurentLambda.from_json(x.to_json()) == x


def test_unipoly_divmod_and_gcd():
    x = UniPoly((Fraction(0), Fraction(1)))
    p = (x - UniPoly.const(Fraction(1))) ** 2 * (x + UniPoly.const(Fraction(3)))
    q, r = p.divmod(x - UniPoly.const(Fraction(1)))
    assert r.is_zero()
    assert poly_gcd(p, p.derivative()).degree == 1


def test_rational_roots_known_examples():
    # x^2 - 3x + 2
    p = UniPoly((Fraction(2), Fraction(-3), Fraction(1)))
    assert rational_roots(p) == [(Fraction(1), 1), (Fraction(2), 1)]
    # x^2 - 2: irrational roots absent
    p = UniPoly((Fraction(-2), Fraction(0), Fraction(1)))
    assert rational_roots(p) == []
    # (x - 1/432)·x^5
    p = UniPoly((Fraction(-1, 432), Fraction(1))) * UniPoly.x_power(5)
    assert rational_roots(p) == [(Fraction(0), 5), (Fraction(1, 432), 1)]


def test_rational_roots_divides_exactly():
    rng = random.Random(3)
    for _ in range(25):
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        extra = UniPoly((Fraction(1), Fraction(0), Fraction(1)))  # x^2 + 1, no rational roots
        p = UniPoly.from_roots(roots) * extra
        found = rational_roots(p)
        total = UniPoly.const(Fraction(1))
        for root, mult in found:
            total = total * UniPoly.from_roots([root] * mult)
        q, r = p.divmod(total)
        assert r.is_zero()
        assert sorted(r0 for r0, m in found for _ in range(m)) == sorted(roots)


def test_rational_roots_huge_coefficients_fast():
    # x^15 - c with the 61/15 constant: no rational roots, answered quickly
    c = Fraction(-(61**61 * 15**15), 34**34 * 22**22 * 20**20)
    p = UniPoly.x_power(15) - UniPoly.const(c)
    assert rational_roots(p) == []


def test_squarefree_decomposition():
    x = UniPoly((Fraction(0), Fraction(1)))
    one = UniPoly.const(Fraction(1))
    p = (x - one) ** 3 * (x + one) * (x ** 2 + UniPoly.const(Fraction(2)))
    parts = squarefree_decomposition(p)
    assert [(g.format(), m) for g, m in parts] == [("x^3 + x^2 + 2·x + 2", 1), ("x - 1", 3)]


def test_coprime_split_known_examples():
    x = UniPoly((Fraction(0), Fraction(1)))
    one = UniPoly.const(Fraction(1))
    p = UniPoly.x_power(5) * (x - UniPoly.const(Fraction(1, 432)))
    assert coprime_split(p) == [UniPoly.x_power(5), x - UniPoly.const(Fraction(1, 432))]
    assert coprime_split(UniPoly.x_power(3)) == [UniPoly.x_power(3)]
    p = (x ** 2 + one) * (x - UniPoly.const(Fraction(2))) ** 2
    assert coprime_split(p) == [x ** 2 + one, (x - UniPoly.const(Fraction(2))) ** 2]


def test_coprime_split_properties():
    rng = random.Random(4)
    for _ in range(20):
        roots = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        p = UniPoly.const(Fraction(1))
        for root in set(roots):
            p = p * UniPoly.from_roots([root] * rng.randint(1, 3))
        if rng.random() < 0.5:
            p = p * (UniPoly((Fraction(1), Fraction(0), Fraction(1))) ** rng.randint(1, 2))
        parts = coprime_split(p)
        prod = UniPoly.const(Fraction(1))
        for part in parts:
            prod = prod * part
        assert prod == p
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i], parts[j]).degree == 0


def test_coprime_split_irreducible_certificate():
    # x^4 + 1 is reducible mod every prime but irreducible over Q
    x4 = UniPoly.x_power(4) + UniPoly.const(Fraction(1))
    assert coprime_split(x4) == [x4]


def test_bezout_known_examples():
    x = UniPoly((Fraction(0), Fraction(1)))
    one = UniPoly.const(Fraction(1))
    for u, v in [(x, x - one), (x - one, x - UniPoly.const(Fraction(2))),
                 (x ** 2, x - UniPoly.const(Fraction(3)))]:
        s, t = bezout(u, v)
        assert s * u + t * v == one
        assert s.degree < max(v.degree, 1)
        assert t.degree < max(u.degree, 1)
    s, t = bezout(x ** 2, x - UniPoly.const(Fraction(3)))
    assert s == UniPoly.const(Fraction(1, 9))
    assert t == UniPoly((Fraction(-1, 3), Fraction(-1, 9)))  # -(x+3)/9


def test_bezout_not_coprime():
    x = UniPoly((Fraction(0), Fraction(1)))
    with pytest.raises(NotCoprime):
        bezout(x ** 2, x)


def test_exact_linear_algebra():
    rows = [[Fraction(1), Fraction(1), Fraction(1)],
            [Fraction(2), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(3), Fraction(1)]]
    inv = mat_inverse(rows)
    assert inv[2] == [Fraction(6), Fraction(-3), Fraction(-2)]
    assert mat_det(rows) == 1
    assert mat_rank(rows) == 3
    sol = mat_solve(rows, [Fraction(1), Fraction(0), Fraction(0)])
    assert sol == [row[0] for row in inv]
    with pytest.raises(ValueError):
        mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


_small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _matrices(n_rows, n_cols):
    return st.lists(st.lists(_small_fractions, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


@st.composite
def _square_systems(draw):
    """A square matrix, singular about half the time, and a right-hand side."""
    n = draw(st.integers(1, 4))
    rows = draw(_matrices(n, n))
    if draw(st.booleans()):
        k = draw(_small_fractions)
        rows[-1] = [k * x for x in rows[0]]
    return rows, draw(st.lists(_small_fractions, min_size=n, max_size=n))


def _to_fractions(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in matrix.row(i)] for i in range(matrix.rows)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_mat_rank_matches_sympy(n_rows, n_cols, data):
    rows = data.draw(_matrices(n_rows, n_cols))
    assert mat_rank(rows) == sympy.Matrix(rows).rank()


@settings(max_examples=150, deadline=None)
@given(_square_systems())
def test_square_linear_algebra_matches_sympy(system):
    rows, rhs = system
    ref = sympy.Matrix(rows)
    det = ref.det()
    assert mat_det(rows) == Fraction(int(det.p), int(det.q))
    assert mat_rank(rows) == ref.rank()
    if det == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            mat_inverse(rows)
        with pytest.raises(ValueError, match="singular matrix"):
            mat_solve(rows, rhs)
    else:
        assert mat_inverse(rows) == _to_fractions(ref.inv())
        assert mat_solve(rows, rhs) == [r[0] for r in _to_fractions(ref.LUsolve(sympy.Matrix(rhs)))]


def test_rational_roots_large_denominator():
    root = Fraction(12345, 677)
    p = UniPoly.from_roots([root, root]) * (UniPoly.x_power(2) + UniPoly.const(Fraction(1)))
    assert rational_roots(p) == [(root, 2)]


_TABLE_PRODUCT = math.prod(_ROOT_PRIMES)
_small_roots = st.builds(Fraction, st.integers(-20, 20),
                        st.one_of(st.integers(1, 9), st.sampled_from(_ROOT_PRIMES)))


@st.composite
def _polynomials(draw):
    """Rational roots with multiplicities times a polynomial of degree 0-4
    whose constant term may have the denominator prod(_ROOT_PRIMES), scaled.
    Primes of the table that divide a root denominator or the leading
    coefficient of the primitive integer form are ruled out for the modular
    root search; at times every one of them is ruled out."""
    p = UniPoly.const(Fraction(1))
    for root, m in draw(st.lists(st.tuples(_small_roots, st.integers(1, 3)), max_size=4)):
        p = p * UniPoly.from_roots([root] * m)
    tail = draw(st.lists(st.integers(-6, 6), max_size=4))
    den = draw(st.sampled_from([1, _TABLE_PRODUCT]))
    tail = [Fraction(c, den if k == 0 else 1) for k, c in enumerate(tail)]
    p = p * UniPoly(tail + [Fraction(draw(st.integers(1, 3)))])
    return p * Fraction(draw(st.integers(-30, 30).filter(bool)), draw(st.integers(1, 7)))


def _sympy_poly(p: UniPoly):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)


@settings(max_examples=100, deadline=None)
@given(_polynomials())
def test_rational_roots_and_coprime_split_match_sympy(p):
    monic = p.monic()
    _, factors = _sympy_poly(monic).factor_list()
    factors = [(UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]).monic(), m)
               for f, m in factors]
    # the roots of the linear factors: sympy.roots itself can raise ValueError
    # (sympy 1.14, on a quadratic factor whose discriminant has ~150 digits)
    assert rational_roots(p) == sorted((-f[0], m) for f, m in factors if f.degree == 1)
    expected = sorted((f ** m).coeffs for f, m in factors)
    assert sorted(piece.coeffs for piece in coprime_split(monic)) == expected


def test_rational_roots_when_every_table_prime_divides_the_leading_coefficient():
    # every prime of the table divides the leading coefficient of the integer
    # form 4099·P·(x - 1/4099)·(x + 2)·(x^2 + 3/P), so the modular search has
    # to run on a larger prime, and 4099 could not see the root 1/4099
    roots = [Fraction(1, 4099), Fraction(-2)]
    quadratic = UniPoly((Fraction(3, _TABLE_PRODUCT), Fraction(0), Fraction(1)))
    p = UniPoly.from_roots(roots) * quadratic
    assert rational_roots(p) == [(Fraction(-2), 1), (Fraction(1, 4099), 1)]
    assert coprime_split(p) == [quadratic] + [UniPoly.from_roots([r]) for r in roots]


@settings(max_examples=100, deadline=None)
@given(_polynomials(), _polynomials(), st.lists(_small_roots, max_size=3))
def test_poly_gcd_matches_sympy(u, v, common):
    shared = UniPoly.from_roots(common)
    u, v = u * shared, v * shared
    expected = sympy.gcd(_sympy_poly(u), _sympy_poly(v)).monic()
    assert poly_gcd(u, v).coeffs == \
        tuple(Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs()))


def test_rational_roots_of_many_table_prime_denominators():
    # degree 23: Euclid over Q without content removal swelled the
    # coefficients of the squarefree decomposition's gcds
    roots = [Fraction(1, q) for q in _ROOT_PRIMES] + [Fraction(-2)]
    p = UniPoly.from_roots(roots) * UniPoly((Fraction(3), Fraction(0), Fraction(1)))
    assert rational_roots(p) == [(r, 1) for r in sorted(roots)]
