import dataclasses
import random
import sys
import threading
from fractions import Fraction
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle
from conftest import random_chain, random_element, random_monic_chain
from fraction_element import FractionElement
from gaussmanin import abalgebra, selftest
from gaussmanin.abalgebra import (
    ABElement,
    HomogChain,
    _mul_int,
    right_divide,
    theta_k,
)
from gaussmanin.engine import analyze, monomial_chain
from gaussmanin.errors import MalformedSpec, NonMonicDivisor, TruncationTooSmall, ZeroElement

A = ABElement.a()
B = ABElement.b()


def test_defining_relation():
    assert A * B == ABElement({(1, 1): 1}) + ABElement({(2, 0): 1})
    assert A * B - B * A == B * B


def test_square_of_a_plus_b():
    s = A + B
    assert s * s == ABElement({(0, 2): 1, (1, 1): 2, (2, 0): 2})


def test_a_times_b_cubed():
    assert A * B ** 3 == B ** 3 * A + B ** 4 * 3


def test_power_identities():
    for nu in range(1, 9):
        assert A ** nu * B == B * (A + B) ** nu
        assert (A + B) ** nu == A ** nu + (A ** (nu - 1) * B) * nu
        assert A ** nu * B == B * A ** nu + (B * A ** (nu - 1) * B) * nu


def test_commutator_with_b_powers():
    for k in range(1, 11):
        assert A * B ** k - B ** k * A == B ** (k + 1) * k


def test_associativity_random():
    rng = random.Random(11)
    for _ in range(100):
        x, y, z = (random_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_degrees_and_homogeneity():
    p = A ** 3 + B * A - B * B
    assert p.a_degree == 3
    assert p.b_order == 0
    assert p.ab_valuation == 2
    assert p.ab_degree == 3
    assert not p.is_homogeneous()
    assert (B * A).is_homogeneous()
    with pytest.raises(ZeroElement):
        ABElement.zero().a_degree


def test_initial_form():
    p = A ** 3 + B * A - B * B
    assert p.initial_form() == B * A - B * B
    hom = random_monic_chain(random.Random(12), 3)
    assert hom.initial_form() == hom
    with pytest.raises(ZeroElement):
        ABElement.zero().initial_form()


def test_initial_form_needs_enough_precision():
    p = (B * A).truncate(3)
    assert p.initial_form() == B * A
    with pytest.raises(TruncationTooSmall):
        (B * A).truncate(2).initial_form()   # a degree-2 tail could be hidden
    with pytest.raises(TruncationTooSmall):
        (B ** 3).truncate(3).initial_form()


def test_truncation_mixing():
    p = A + B ** 5
    q = p.truncate(3)
    assert q.terms == {(0, 1): Fraction(1)}
    prod = p * q
    assert prod.trunc == 3
    assert all(k < 3 for (k, _) in prod.terms)


def test_right_divide_reconstruct_product():
    p = ABElement.linear(1, -2) * ABElement.linear(1, -1)
    quot, rem = right_divide(p, ABElement.linear(1, -1))
    assert quot == ABElement.linear(1, -2)
    assert rem.is_zero()


def test_right_divide_a_squared():
    quot, rem = right_divide(A * A, A - B)
    assert quot == A + B
    assert rem == B * B * 2
    assert quot * (A - B) + rem == A * A


def test_right_divide_low_degree():
    quot, rem = right_divide(B * B, A)
    assert quot.is_zero()
    assert rem == B * B


def test_right_divide_random_reconstruction():
    rng = random.Random(13)
    for _ in range(100):
        dvs = random_element(rng, 2, 2, 3) + ABElement.term(0, 3)
        p = random_element(rng, 4, 4, 6)
        quot, rem = right_divide(p, dvs)
        assert quot * dvs + rem == p
        assert rem.is_zero() or rem.a_degree < dvs.a_degree


def test_right_divide_truncated():
    rng = random.Random(14)
    for _ in range(20):
        dvs = (random_element(rng, 1, 3, 3) + ABElement.term(0, 2)).truncate(8)
        p = random_element(rng, 5, 6, 8).truncate(8)
        quot, rem = right_divide(p, dvs)
        assert (quot * dvs + rem - p).is_zero()


def test_right_divide_nonmonic_rejected():
    with pytest.raises(NonMonicDivisor):
        right_divide(A * A, A * 2 + B * A)  # leading a-coeff has a b part
    with pytest.raises(NonMonicDivisor):
        right_divide(A, ABElement.zero())
    # scalar-times-monic leading coefficient is fine
    quot, rem = right_divide(A * A, A * 2 - B)
    assert quot * (A * 2 - B) + rem == A * A


def test_theta4_known_examples():
    assert theta_k(A * B, 4) == -(B * A) + B * B * 4
    assert theta_k(theta_k(A, 4), 4) == A
    assert theta_k(theta_k(B, 4), 4) == B


def test_theta_involution_antimultiplicative_random():
    rng = random.Random(15)
    for _ in range(30):
        x, y = random_element(rng, 3, 3, 4), random_element(rng, 3, 3, 4)
        k = rng.randint(0, 5)
        assert theta_k(theta_k(x, k), k) == x
        assert theta_k(x * y, k) == theta_k(y, k) * theta_k(x, k)


def test_chain_expand_examples():
    assert HomogChain(((Fraction(1), Fraction(-1)),)).expand() == A - B
    two = HomogChain(((Fraction(1), Fraction(-2)), (Fraction(1), Fraction(-1))))
    assert two.expand() == A * A - B * A * 3 + B * B
    assert HomogChain(((Fraction(6), Fraction(-5)),)).expand() == A * 6 - B * 5
    assert HomogChain(()).expand() == ABElement.one()


def _right_multiplied(chain: HomogChain) -> ABElement:
    """The chain product taken left to right, each factor on the right."""
    out = ABElement.one()
    for eta, theta in chain.factors:
        out = out * ABElement.linear(eta, theta)
    return out


_small_fractions = st.one_of(st.just(Fraction(0)),
                             st.fractions(min_value=-4, max_value=4, max_denominator=3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_small_fractions, _small_fractions), max_size=12))
def test_chain_expand_matches_right_multiplication(factors):
    chain = HomogChain(tuple(factors))
    assert chain.expand() == _right_multiplied(chain)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_small_fractions, _small_fractions), max_size=12))
def test_chain_tail_is_the_chain_without_its_leftmost_factor(factors):
    # the tail first, so that `expand` steps on the build `expand_tail` made
    chain = HomogChain(tuple(factors))
    assert chain.expand_tail() == _right_multiplied(HomogChain(tuple(factors[1:])))
    assert chain.expand() == _right_multiplied(chain)


@pytest.mark.parametrize("name", ["e2", "e3", "e4"])
def test_chain_expand_matches_right_multiplication_on_specs(name, request):
    spec = request.getfixturevalue(name)
    rel = analyze(spec)
    for gamma in (rel.Delta, rel.delta):
        chain, _ = monomial_chain(spec, gamma)
        assert chain.expand() == _right_multiplied(chain)


def _fraction_product(x: ABElement, y: ABElement) -> ABElement:
    """x·y term pair by term pair in Fraction arithmetic, the former __mul__."""
    trunc = min((t for t in (x.trunc, y.trunc) if t is not None), default=None)
    out: dict[tuple[int, int], Fraction] = {}
    for (k1, i1), c1 in x.terms.items():
        for (k2, i2), c2 in y.terms.items():
            rising = 1
            for t in range(i1 + 1):
                if t:
                    rising *= k2 + t - 1
                    if rising == 0:
                        break
                k = k1 + k2 + t
                if trunc is not None and k >= trunc:
                    break
                key = (k, i1 + i2 - t)
                out[key] = out.get(key, Fraction(0)) + c1 * c2 * (comb(i1, t) * rising)
    return ABElement(out, trunc)


def _rational_left_multiplied(chain: HomogChain) -> ABElement:
    """The chain product from the left, each step a Fraction product."""
    out = ABElement.one()
    for eta, theta in reversed(chain.factors):
        out = _fraction_product(ABElement.linear(eta, theta), out)
    return out


def _same_element(x: ABElement, y: ABElement) -> bool:
    """Equal, with every coefficient a normalized Fraction, so JSON bytes agree."""
    return (x == y and hash(x) == hash(y) and x.to_json() == y.to_json()
            and all(type(c) is Fraction for c in x.terms.values()))


# mixed denominators, negative and zero coefficients
_coefficients = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-60, max_value=60, max_denominator=15))
_elements = st.builds(
    ABElement,
    st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)), _coefficients, max_size=8),
    st.one_of(st.none(), st.integers(1, 9)))


@settings(max_examples=300, deadline=None)
@given(_elements, _elements)
def test_product_matches_the_fraction_product(x, y):
    assert _same_element(x * y, _fraction_product(x, y))


def test_product_with_zero_and_cancelling_terms():
    x = ABElement({(0, 1): Fraction(1, 3), (1, 0): Fraction(-2, 5)}, trunc=3)
    assert _same_element(x * (x - x), _fraction_product(x, x - x))
    # a·b - b·a - b^2 cancels to zero in every coefficient
    assert (A * B - B * A - B * B).is_zero()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_small_fractions, _small_fractions), max_size=12))
def test_chain_expand_matches_the_rational_left_product(factors):
    chain = HomogChain(tuple(factors))
    assert _same_element(chain.expand(), _rational_left_multiplied(chain))


@pytest.mark.parametrize("name", ["e2", "e3", "e4", "quintic", "e61"])
def test_chain_expand_matches_the_rational_left_product_on_specs(name, request):
    spec = request.getfixturevalue(name)
    rel = analyze(spec)
    for gamma in (rel.Delta, rel.delta):
        chain, _ = monomial_chain(spec, gamma)
        assert _same_element(chain.expand(), _rational_left_multiplied(chain))


def test_chain_expand_uses_no_product_kernel(e61, monkeypatch):
    rel = analyze(e61)
    chains = [monomial_chain(e61, gamma)[0] for gamma in (rel.Delta, rel.delta)]

    def refuse(*args):
        raise AssertionError("the chain product reached _mul_int")

    monkeypatch.setattr(abalgebra, "_mul_int", refuse)
    for chain in chains:
        assert _same_element(chain.expand(), _rational_left_multiplied(chain))


def test_chain_keeps_only_its_factors():
    assert [f.name for f in dataclasses.fields(HomogChain)] == ["factors"]


def test_chain_leading_coefficient():
    rng = random.Random(16)
    for _ in range(25):
        chain = random_chain(rng, rng.randint(1, 5))
        expanded = chain.expand()
        assert expanded.is_homogeneous()
        assert expanded.ab_degree == chain.degree
        assert expanded.coeff(0, chain.degree) == chain.leading


def test_json_roundtrip():
    rng = random.Random(17)
    for _ in range(10):
        x = random_element(rng)
        assert ABElement.from_json(x.to_json()) == x
    y = (A ** 2 * Fraction(-1, 432) + B).truncate(4)
    assert ABElement.from_json(y.to_json()) == y
    assert y.to_json()["terms"][0]["c"] == [[0, "-1/432"]]
    # λ lives in the operator's scalar c·λ^r, never in an element
    lam_json = {"trunc": 4, "terms": [{"b": 0, "a": 2, "c": [[6, "-1/432"]]}]}
    with pytest.raises(MalformedSpec):
        ABElement.from_json(lam_json)


def test_text_form():
    x = B ** 2 * A ** 3
    assert str(x) == "b^2·a^3"
    p = A ** 3 + B * A - B * B
    # decreasing total degree, then decreasing a-power
    assert str(p) == "a^3 + b·a - b^2"


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative exponent"):
        ABElement.linear(Fraction(1), Fraction(0)) ** -1


# ---------------------------------------------------------------------------
# Integer numerators over one denominator against the Fraction-per-term oracle
# ---------------------------------------------------------------------------

# denominator 1, small mixed denominators, and 60-bit numerators and denominators
_oracle_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-60, max_value=60, max_denominator=15),
    st.builds(Fraction, st.integers(-2 ** 60, 2 ** 60), st.integers(1, 2 ** 60)))
_oracle_terms = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                _oracle_coefficients, max_size=7)
_oracle_truncs = st.one_of(st.none(), st.integers(1, 9))


def _pair(terms, trunc):
    return ABElement(terms, trunc), FractionElement(terms, trunc)


def _agrees(new, old) -> bool:
    """Same element, same normalized Fractions, hash, JSON and text; and the
    storage invariant: nonzero numerators, gcd(den, *num) = 1, den = 1 for zero."""
    num, den = new.numerators()
    return (isinstance(new, ABElement) and isinstance(old, FractionElement)
            and dict(new.terms) == old.terms and new.trunc == old.trunc
            and all(type(c) is Fraction for c in new.terms.values())
            and hash(new) == hash(old) and new.to_json() == old.to_json()
            and str(new) == str(old)
            and all(num.values()) and den > 0 and gcd(den, *num.values()) == 1
            and den == lcm(*(c.denominator for c in old.terms.values())))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:   # both storages must raise the same error
        return "raise", type(exc)


@settings(max_examples=300, deadline=None)
@given(_oracle_terms, _oracle_truncs, _oracle_terms, _oracle_truncs, st.booleans())
def test_ring_operations_match_the_fraction_oracle(xt, xtrunc, yt, ytrunc, cancel):
    x, ox = _pair(xt, xtrunc)
    if cancel:   # y = z − x, so x + y and y + x cancel x's terms
        z, oz = _pair(yt, ytrunc)
        y, oy = z - x, oz - ox
    else:
        y, oy = _pair(yt, ytrunc)
    assert _agrees(x, ox) and _agrees(y, oy)
    assert _agrees(x + y, ox + oy) and _agrees(y + x, oy + ox)
    assert _agrees(x - y, ox - oy) and _agrees(x - x, ox - ox)
    assert _agrees(-x, -ox)
    assert _agrees(x * y, ox * oy) and _agrees(y * x, oy * ox)
    assert (x == y) == (ox == oy) and (x + y - y == x) == (ox + oy - oy == ox)


@settings(max_examples=300, deadline=None)
@given(_oracle_terms, _oracle_truncs, _oracle_coefficients, st.integers(-3, 3),
       st.integers(0, 3), st.integers(1, 9), st.integers(-2, 3), st.integers(0, 12))
def test_unary_operations_match_the_fraction_oracle(terms, trunc, scalar, small, n, order, q,
                                                    degree):
    x, ox = _pair(terms, trunc)
    assert _agrees(x * scalar, ox * scalar) and _agrees(scalar * x, scalar * ox)
    assert _agrees(x * small, ox * small)
    assert _agrees(x ** n, ox ** n)
    assert _agrees(x.truncate(order), ox.truncate(order))
    assert _agrees(x.component(degree), ox.component(degree))
    for mine, theirs in ((_outcome(x.shift_b, q), _outcome(ox.shift_b, q)),
                         (_outcome(x.initial_form), _outcome(ox.initial_form))):
        if mine[0] == "value":
            assert theirs[0] == "value" and _agrees(mine[1], theirs[1])
        else:
            assert mine == theirs
    old_class, new_class = ox.mod_b(), x.mod_b()
    assert new_class == old_class and new_class.to_json() == old_class.to_json()
    for k in range(8):
        assert x.a_coefficient(k) == ox.a_coefficient(k)
        for i in range(8):
            assert x.coeff(k, i) == ox.coeff(k, i) and type(x.coeff(k, i)) is Fraction
    assert x.is_monic_in_a() == ox.is_monic_in_a()
    assert x.is_homogeneous() == ox.is_homogeneous()
    assert ABElement.from_json(x.to_json()) == x


def test_fraction_oracle_edge_elements():
    zero, ozero = _pair({}, None)
    assert zero.numerators() == ({}, 1) and _agrees(zero, ozero)
    one, oone = _pair({(0, 0): 1}, 4)
    assert _agrees(one * 0, oone * 0) and (one * 0).numerators() == ({}, 1)
    # a sum whose terms cancel to zero, and one whose denominator cancels
    x, ox = _pair({(0, 1): Fraction(1, 3), (2, 0): Fraction(5, 2 ** 60 + 1)}, None)
    assert _agrees(x - x, ox - ox) and (x - x).numerators() == ({}, 1)
    half, ohalf = _pair({(1, 1): Fraction(1, 2)}, None)
    assert _agrees(half + half, ohalf + ohalf) and (half + half).numerators()[1] == 1
    # monic in a with a b-tail over another denominator, and a non-monic lead
    monic, omonic = _pair({(0, 2): 1, (1, 0): Fraction(1, 3)}, None)
    assert monic.is_monic_in_a() and omonic.is_monic_in_a()
    assert not (monic * 2).is_monic_in_a() and not (omonic * 2).is_monic_in_a()


# ---------------------------------------------------------------------------
# Packed keys, the weight table and the integer theta_k against their oracles
# ---------------------------------------------------------------------------

# a-powers up to 20; b-powers up to 6, so a truncation falls below, between and
# above k1 + k2 and k1 + k2 + i1; zero keys give terms with k2 = 0 and i1 = 0
_kernel_maps = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 20)),
                               st.integers(-2 ** 40, 2 ** 40), max_size=6)
_kernel_truncs = st.one_of(st.none(), st.just(1), st.integers(1, 40))


def _same_map(got: dict, want: dict) -> bool:
    """Equal maps with the same keys in the same insertion order."""
    return list(got.items()) == list(want.items())


@settings(max_examples=400, deadline=None)
@given(_kernel_maps, _kernel_maps, _kernel_truncs)
@example({}, {(1, 3): 2}, None)
@example({(1, 3): 2}, {}, 5)
@example({(0, 20): 3, (2, 0): -1}, {(0, 7): 5, (4, 20): 2}, None)
@example({(0, 20): 3, (2, 0): -1}, {(0, 7): 5, (4, 20): 2}, 3)
@example({(0, 20): 3, (2, 0): -1}, {(0, 7): 5, (4, 20): 2}, 30)
def test_kernel_matches_the_oracle_in_key_order(x, y, trunc):
    assert _same_map(_mul_int(x, y, trunc), kernel_oracle.mul_int(x, y, trunc))


def test_kernel_does_not_depend_on_the_weight_table():
    x = {(0, 12): 3, (2, 7): -1, (1, 0): 5}
    y = {(3, 4): 2, (0, 9): 1, (5, 1): -7}
    for first, second in ((x, y), (y, x)):
        abalgebra._WEIGHTS.clear()
        assert _same_map(_mul_int(first, second, None),
                         kernel_oracle.mul_int(first, second, None))
        assert _same_map(_mul_int(second, first, None),
                         kernel_oracle.mul_int(second, first, None))
    # a row grown part way by a truncated product, read in full by an untruncated
    # one, then read part way again
    abalgebra._WEIGHTS.clear()
    assert _same_map(_mul_int(x, y, 8), kernel_oracle.mul_int(x, y, 8))
    assert len(abalgebra._WEIGHTS[12, 3]) == 4
    assert _same_map(_mul_int(x, y, None), kernel_oracle.mul_int(x, y, None))
    assert len(abalgebra._WEIGHTS[12, 3]) == 12
    assert _same_map(_mul_int(x, y, 8), kernel_oracle.mul_int(x, y, 8))


def test_weight_table_shared_by_threads():
    # rows of one (i1, k2) grown to different lengths at once by truncated products
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        x = {(rng.randint(0, 3), rng.randint(10, 30)): rng.randint(-9, 9) for _ in range(4)}
        y = {(rng.randint(1, 3), rng.randint(0, 20)): rng.randint(-9, 9) for _ in range(4)}
        cases.append((x, y, rng.choice((None, 4, 6, 9, 13, 18, 24))))
    want = [kernel_oracle.mul_int(*case) for case in cases]
    wrong = []

    def work(order):
        for j in order:
            if not _same_map(_mul_int(*cases[j]), want[j]):
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            abalgebra._WEIGHTS.clear()
            threads = [threading.Thread(target=work, args=(rng.sample(range(40), 40),))
                       for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    for (i1, k2), row in abalgebra._WEIGHTS.items():
        rising = [prod(range(k2, k2 + t)) for t in range(1, len(row) + 1)]
        assert row == [comb(i1, t) * r for t, r in enumerate(rising, 1)]


_theta_elements = st.builds(
    ABElement,
    st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)), _coefficients,
                    max_size=8))


@settings(max_examples=300, deadline=None)
@given(_theta_elements, st.integers(-6, 6))
@example(ABElement({(1, 2): Fraction(1, 3), (3, 0): -2, (0, 4): 5, (1, 0): 1}), 0)
@example(ABElement({(5, 3): Fraction(-7, 2), (2, 6): 1}), -6)
@example(ABElement.zero(), 3)
def test_theta_matches_the_oracle(p, k):
    assert _same_element(theta_k(p, k), kernel_oracle.theta_k(p, k))


def test_theta_refuses_a_truncated_element():
    with pytest.raises(ValueError, match="untruncated"):
        theta_k(ABElement({(0, 1): 1, (1, 0): 2}, trunc=3), 2)
    with pytest.raises(ValueError, match="untruncated"):
        theta_k(ABElement.zero(trunc=1), 0)


def test_selftest_elements_are_the_fraction_elements_of_the_same_draws():
    for seed in range(20):
        drawn, ours = random.Random(seed), random.Random(seed)
        for max_a, max_b, n_terms in ((4, 4, 5), (3, 3, 4), (2, 2, 3)):
            terms = {}
            for _ in range(n_terms):
                key = (drawn.randint(0, max_b), drawn.randint(0, max_a))
                terms[key] = Fraction(drawn.randint(-5, 5), drawn.randint(1, 3))
            want = ABElement(terms)
            got = selftest._random_element(ours, max_a, max_b, n_terms)
            assert (got.num, got.den, got.trunc) == (want.num, want.den, want.trunc)
            assert list(got.num) == list(want.num)
