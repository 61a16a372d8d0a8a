import random
from dataclasses import replace
from fractions import Fraction
from itertools import cycle
from math import comb, perm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_monic_chain, random_spec
from laurent_arith import Laurent, laurent
from gaussmanin import PolySpec, build_operator, cyclic_symmetric_spec
from gaussmanin.abalgebra import ABElement, HomogChain
from gaussmanin.errors import NotHomogeneous, NotMonic
from gaussmanin.ode import (
    DiffOp,
    bernstein_polynomial,
    element_from_bernstein,
    euler_form,
    euler_to_diffop,
    from_euler,
    singular_values,
    to_differential_operator,
)
from gaussmanin.scalars import LaurentLambda, UniPoly, as_laurent, rational_roots

A = ABElement.a()
B = ABElement.b()


def _theta_poly(*coeffs):
    return UniPoly(tuple(Fraction(c) for c in coeffs))


def test_euler_form_linear():
    for r in (Fraction(0), Fraction(3), Fraction(-5, 2)):
        e = euler_form(A - B * r)
        assert e == _theta_poly(1 - r, 1)


def test_euler_form_pure_b_power():
    assert euler_form(B * B) == _theta_poly(1)


def test_euler_form_chain_product():
    p = ABElement.linear(1, -2) * ABElement.linear(1, -1)
    assert euler_form(p) == _theta_poly(0, 0, 1)   # θ^2


def _fraction_euler_form(p: ABElement) -> UniPoly:
    """Σ c·(θ+1)···(θ+i) over the terms c·b^k·a^i in Fraction arithmetic,
    the former euler_form."""
    out = UniPoly()
    for (_, i), c in p.terms.items():
        falling = UniPoly.const(Fraction(1))
        for j in range(1, i + 1):
            falling = falling * UniPoly((Fraction(j), Fraction(1)))
        out = out + falling.scale(c)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda q: st.dictionaries(
    st.integers(0, q).map(lambda k: (k, q - k)),
    st.fractions(min_value=-40, max_value=40, max_denominator=12), min_size=1)))
def test_euler_form_matches_the_fraction_sum(terms):
    p = ABElement(terms)
    if p.is_zero():
        return
    assert euler_form(p).to_json() == _fraction_euler_form(p).to_json()


@pytest.mark.parametrize("name", ["e2", "e3", "e4", "quintic", "e61"])
def test_euler_form_matches_the_fraction_sum_on_specs(request, name):
    op = build_operator(request.getfixturevalue(name))
    for p in (op.P_dh, op.P_d):
        assert euler_form(p).to_json() == _fraction_euler_form(p).to_json()


def test_euler_form_requires_homogeneous():
    with pytest.raises(NotHomogeneous):
        euler_form(A ** 3 + B)


def test_euler_shifted_multiplicativity():
    rng = random.Random(31)
    for _ in range(100):
        x = random_monic_chain(rng, rng.randint(1, 4))
        y = random_monic_chain(rng, rng.randint(1, 4))
        q = y.ab_degree
        shift = UniPoly((Fraction(q), Fraction(1)))   # θ + q
        lhs = euler_form(x * y)
        rhs = euler_form(x).compose(shift) * euler_form(y)
        assert lhs == rhs


def test_euler_of_monic_chain_is_monic_with_rational_roots():
    rng = random.Random(32)
    for _ in range(25):
        q = rng.randint(1, 5)
        chain = random_monic_chain(rng, q)
        e = euler_form(chain)
        assert e.degree == q and e.is_monic()
        roots = rational_roots(e.to_rational())
        assert sum(m for _, m in roots) == q


def test_from_euler_inverse():
    rng = random.Random(33)
    for _ in range(25):
        q = rng.randint(1, 5)
        chain = random_monic_chain(rng, q)
        assert from_euler(euler_form(chain), q) == chain


_euler_coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(_euler_coefficients, min_size=1, max_size=q + 1))))
@example((4, [Fraction(-5, 6)]))
@example((3, [Fraction(0), Fraction(2, 7)]))
def test_from_euler_round_trips_rational_polynomials_of_degree_at_most_q(q_and_coeffs):
    q, coeffs = q_and_coeffs
    e = UniPoly(coeffs)
    assume(not e.is_zero())
    assert euler_form(from_euler(e, q)) == e


def test_from_euler_refuses_a_degree_above_q():
    with pytest.raises(ValueError, match="exceeds the element degree"):
        from_euler(UniPoly((Fraction(1), Fraction(0), Fraction(3, 2))), 1)


def test_bernstein_polynomial_examples():
    for r in (Fraction(2), Fraction(-7, 3)):
        assert bernstein_polynomial(A - B * r) == UniPoly((r, Fraction(1)))
    assert bernstein_polynomial(A) == UniPoly((Fraction(0), Fraction(1)))
    q = ABElement.linear(1, -1) * ABElement.linear(1, -2)
    assert bernstein_polynomial(q) == UniPoly((Fraction(0), Fraction(2), Fraction(1)))


def test_bernstein_hand_identity_degree_one():
    # (-b)·B(-b^{-1}a) = a - r·b checked by direct expansion: B = x + r
    r = Fraction(5, 2)
    bpoly = bernstein_polynomial(A - B * r)
    # -b·(-b^{-1}a + r) = a - r·b
    assert bpoly == UniPoly((r, Fraction(1)))


def test_bernstein_roundtrip():
    rng = random.Random(34)
    for _ in range(25):
        d = rng.randint(1, 5)
        q = random_monic_chain(rng, d)
        bpoly = bernstein_polynomial(q)
        assert bpoly.is_monic() and bpoly.degree == d
        assert element_from_bernstein(bpoly, d) == q


def test_bernstein_requires_monic_homogeneous():
    with pytest.raises(NotHomogeneous):
        bernstein_polynomial(A + B * B)
    with pytest.raises(NotMonic):
        bernstein_polynomial(A * 2)
    with pytest.raises(NotMonic):
        bernstein_polynomial(B * A - B * B)  # a-degree below full degree


# DiffOp arithmetic and the θ-step of Horner's rule, the ODE export before the
# closed form; they are the oracle for to_differential_operator and its zero types

def _add(x: DiffOp, y: DiffOp) -> DiffOp:
    out = dict(x.parts)
    for k, p in y.parts:
        out[k] = out.get(k, UniPoly()) + p
    return DiffOp.build(out)


def _neg(x: DiffOp) -> DiffOp:
    return DiffOp(tuple((k, -p) for k, p in x.parts))


def _sub(x: DiffOp, y: DiffOp) -> DiffOp:
    return _add(x, _neg(y))


def _scale(x: DiffOp, c) -> DiffOp:
    c = laurent(c)
    return DiffOp.build({k: p.map_coeffs(lambda v: v * c) for k, p in x.parts})


def _times_theta(x: DiffOp) -> DiffOp:
    """x·θ by (Σ p_k·D^k)·s·D = Σ (s·p_k·D^{k+1} + k·p_k·D^k)."""
    s = UniPoly((Fraction(0), Fraction(1)))
    one = UniPoly.const(Fraction(1))
    out: dict[int, UniPoly] = {}
    for k, p in x.parts:
        out[k + 1] = p * s
        if k:   # p·1 turns zero coefficients into int 0, which JSON writes as "0"
            out[k] = out.get(k, UniPoly()) + p * one * k
    return DiffOp.build(out)


def _horner(e: UniPoly) -> DiffOp:
    """Substitute θ = s·D into e and normal-order, by Horner's rule in θ."""
    out = DiffOp(())
    for c in reversed(e.coeffs):
        out = _add(_times_theta(out), DiffOp.build({0: UniPoly.const(c)}))
    return out


def _leibniz_product(x: DiffOp, y: DiffOp) -> DiffOp:
    """The general product x·y by Leibniz's rule, the export's former path."""
    out: dict[int, UniPoly] = {}
    for k, p in x.parts:
        for l, q in y.parts:
            # D^k·q(s) = Σ_t C(k,t)·q^{(t)}(s)·D^{k-t}
            deriv = q
            for t in range(k + 1):
                if deriv.is_zero():
                    break
                term = p * deriv * comb(k, t)
                key = k - t + l
                out[key] = out.get(key, UniPoly()) + term
                deriv = deriv.derivative()
    return DiffOp.build(out)


S = UniPoly((Fraction(0), Fraction(1)))
THETA = DiffOp.build({1: S})


def _d_power(h: int) -> DiffOp:
    return DiffOp.build({h: UniPoly.const(Fraction(1))})


def _oracle_euler_to_diffop(e: UniPoly) -> DiffOp:
    out = DiffOp(())
    for c in reversed(e.coeffs):
        out = _add(_leibniz_product(out, THETA), DiffOp.build({0: UniPoly.const(c)}))
    return out


def test_diffop_leibniz():
    s = DiffOp.build({0: S})
    one = DiffOp.build({0: UniPoly.const(Fraction(1))})
    assert _leibniz_product(_d_power(1), s) == _add(_leibniz_product(s, _d_power(1)), one)


# every kind of zero the export meets: the JSON writes int and Fraction zeros
# as "0" and an empty LaurentLambda as [], so the θ-step must keep each kind
_coefficients = st.one_of(
    st.sampled_from((0, Fraction(0), Laurent())),
    st.builds(lambda e, n, m: Laurent.monomial(e, Fraction(n, m)),
              st.integers(-3, 3), st.integers(-9, 9), st.integers(1, 4)))
_polys = st.lists(_coefficients, max_size=6).map(UniPoly)
_diffops = st.dictionaries(st.integers(0, 6), _polys, max_size=5).map(DiffOp.build)


@settings(max_examples=200, deadline=None)
@given(_diffops)
def test_theta_step_matches_the_general_product_byte_for_byte(op):
    assert _times_theta(op).to_json() == _leibniz_product(op, THETA).to_json()


@settings(max_examples=100, deadline=None)
@given(_polys)
def test_horner_matches_the_general_product_byte_for_byte(e):
    assert _horner(e).to_json() == _oracle_euler_to_diffop(e).to_json()


@settings(max_examples=100, deadline=None)
@given(_polys, st.integers(0, 6))
def test_d_power_commutes_past_euler_polynomial_by_shifting_theta(e, h):
    # D^h·E(θ) = E(θ+h)·D^h
    shifted = _horner(e.compose(UniPoly((Fraction(h), Fraction(1)))))
    rhs = DiffOp(tuple((k + h, p) for k, p in shifted.parts))
    assert _leibniz_product(_d_power(h), _horner(e)) == rhs


def test_euler_to_diffop():
    # factor j of a length-2 chain is η_j·(θ + 3 - j) + θ_j: here 2·θ and θ
    chain = HomogChain(((Fraction(2), Fraction(-4)), (Fraction(1, 3), Fraction(-1, 3))))
    assert euler_to_diffop(chain) == [0, 2, 2]      # 2·θ^2 = 2·s^2·D^2 + 2·s·D
    assert euler_to_diffop(chain, 1) == [2, 6, 2]   # 2·(θ+1)^2


def _chain_with_roots(roots, etas) -> HomogChain:
    """The chain whose Euler polynomial is Π_j (θ - ρ_j): factor j is
    η_j·a + θ_j·b with η_j·(θ + q - j + 1) + θ_j = η_j·(θ - ρ_j)."""
    q = len(roots)
    return HomogChain(tuple((eta, -eta * (rho + q - j + 1))
                            for j, (rho, eta) in enumerate(zip(roots, etas), 1)))


def _diagonal(op: DiffOp, n: int) -> list:
    """The s^k·D^k entries, k = 0..n, of an operator that is a polynomial in θ."""
    return [op.coefficient(k)[k] for k in range(n + 1)]


_roots = st.lists(st.one_of(st.integers(-2, 4), st.fractions(-5, 5, max_denominator=4)),
                  min_size=1, max_size=7)
_etas = st.lists(st.fractions(1, 4, max_denominator=3) | st.fractions(-4, -1, max_denominator=3),
                 min_size=7, max_size=7)


@settings(max_examples=100, deadline=None)
@given(_roots, _etas, st.integers(0, 5))
def test_euler_to_diffop_matches_horner(roots, etas, shift):
    chain = _chain_with_roots([Fraction(r) for r in roots], etas)
    e = euler_form(chain.expand()).monic()
    assert e == UniPoly.from_roots(roots)
    x = euler_to_diffop(chain, shift)
    oracle = _diagonal(_horner(e.compose(UniPoly((Fraction(shift), Fraction(1))))), len(roots))
    assert [Fraction(v, x[-1]) for v in x] == oracle


def test_to_differential_operator_e2(e2):
    op = build_operator(e2)
    diff = to_differential_operator(op)
    assert diff.order == 6
    lead = diff.coefficient(6)
    expected = UniPoly.x_power(6, Laurent.const(1)) + \
        UniPoly.x_power(5, Laurent.monomial(6, Fraction(1, 432)))
    assert lead == expected


def test_to_differential_operator_family():
    op = build_operator(cyclic_symmetric_spec((5, 0, 0, 0)))
    diff = to_differential_operator(op)
    assert diff.order == 5
    lead = diff.coefficient(5)
    expected = UniPoly.x_power(5, Laurent.const(1)) - \
        UniPoly.x_power(4, Laurent.monomial(5, Fraction(1, 3125)))
    assert lead == expected


def test_leading_coefficient_identity_random():
    rng = random.Random(35)
    for _ in range(5):
        spec = random_spec(rng, max_vars=3, max_entry=5, max_weight=14)
        op = build_operator(spec)
        diff = to_differential_operator(op)   # internal assert pins the identity
        assert diff.order == op.d + op.h


def test_singular_values(e2, e61):
    op = build_operator(e2)
    h, rhs = singular_values(op)
    assert h == 1
    assert rhs == LaurentLambda.monomial(6, Fraction(-1, 432))
    op61 = build_operator(e61)
    h61, rhs61 = singular_values(op61)
    assert h61 == 15
    assert rhs61 == LaurentLambda.monomial(-61, analyze_c61())


def analyze_c61():
    return Fraction(-(61**61 * 15**15), 34**34 * 22**22 * 20**20)


def test_diffop_json_and_str(e2):
    op = build_operator(e2)
    diff = to_differential_operator(op)
    assert DiffOp.from_json(diff.to_json()) == diff
    text = str(diff)
    assert "D^6" in text and "s^6" in text


def _ode_oracle(g) -> dict:
    """b^{-(d+h)}·P term by term: c·b^k·a^i is c·D^m·s^i with m = d+h-k, and
    D^m·s^i = Σ_t C(m,t)·i!/(i-t)!·s^{i-t}·D^{m-t}.  Maps (order, s-power)
    to the nonzero coefficients."""
    out = {}
    for part, scale in ((g.P_dh, Laurent.const(1)), (g.P_d, -laurent(g.lambda_part()))):
        for (k, i), c in part.terms.items():
            m = g.d + g.h - k
            for t in range(min(m, i) + 1):
                key = (m - t, i - t)
                out[key] = out.get(key, Laurent()) + scale * (c * comb(m, t) * perm(i, t))
    return {key: v for key, v in out.items() if v}


def _ode_values(diff: DiffOp) -> dict:
    return {(k, i): as_laurent(c) for k, p in diff.parts
            for i, c in enumerate(p.coeffs) if c != 0}


@pytest.mark.parametrize("name", ["e2", "e3", "e4", "quintic", "e61"])
def test_ode_matches_the_term_by_term_oracle(request, name):
    op = build_operator(request.getfixturevalue(name))
    assert _ode_values(to_differential_operator(op)) == _ode_oracle(op)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_ode_matches_the_term_by_term_oracle_on_random_specs(seed):
    op = build_operator(random_spec(random.Random(seed), max_vars=3, max_entry=5,
                                    max_weight=24))
    assert _ode_values(to_differential_operator(op)) == _ode_oracle(op)


def _horner_export(g, coeff=lambda c: c) -> DiffOp:
    """b^{-(d+h)}·P = E_{d+h}(θ) - c·λ^r·E_d(θ+h)·D^h by Horner steps in θ over
    Q, or over Q[λ, λ^-1] with coeff=laurent: the ODE export before the
    closed form, and the one before that."""
    lead = _horner(euler_form(g.P_dh).map_coeffs(coeff))
    lead = DiffOp(tuple((k, p.map_coeffs(lambda c: c if isinstance(c, int) else laurent(c)))
                        for k, p in lead.parts))
    theta_h = UniPoly((Fraction(g.h), Fraction(1)))
    shifted = _horner(euler_form(g.P_d).map_coeffs(coeff).compose(theta_h))
    tail = DiffOp(tuple((k + g.h, p) for k, p in shifted.parts))
    return _sub(lead, _scale(tail, g.lambda_part()))


# to_json, not ==: == does not see whether a zero is int 0 or an empty LaurentLambda
@pytest.mark.parametrize("name", ["e2", "e3", "e4", "quintic"])
def test_rational_horner_export_matches_the_laurent_one_byte_for_byte(request, name):
    op = build_operator(request.getfixturevalue(name))
    assert _horner_export(op).to_json() == _horner_export(op, laurent).to_json()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_rational_horner_export_matches_the_laurent_one_on_random_specs(seed):
    op = build_operator(random_spec(random.Random(seed), max_vars=3, max_entry=5,
                                    max_weight=24))
    assert _horner_export(op).to_json() == _horner_export(op, laurent).to_json()


def _binomial_spec(a: int, b: int) -> PolySpec:
    """x^a + y^b + λ·x·y."""
    return PolySpec(((a, 0), (0, b)), (1, 1), (0, 0))


@pytest.mark.parametrize("name", ["e2", "e3", "e4", "quintic", "e61", "x14y17"])
def test_closed_form_export_matches_horner_byte_for_byte(request, name):
    spec = _binomial_spec(14, 17) if name == "x14y17" else request.getfixturevalue(name)
    op = build_operator(spec)
    assert to_differential_operator(op).to_json() == _horner_export(op).to_json()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_closed_form_export_matches_horner_on_random_specs(seed):
    op = build_operator(random_spec(random.Random(seed), max_vars=3, max_entry=5,
                                    max_weight=24))
    assert to_differential_operator(op).to_json() == _horner_export(op).to_json()


def _zero_rule_branches(g) -> set[str]:
    """The rare cases of the zero rule that g's export meets, read off the Horner
    oracle: α and β are the s^k·D^k entries of E_{d+h}(θ) and E_d(θ+h), γ those
    of (E_{d+h}(θ) - E_{d+h}(0))/θ."""
    e = euler_form(g.P_dh)
    alpha = _diagonal(_horner(e), g.d + g.h)
    beta = _diagonal(_horner(euler_form(g.P_d).compose(UniPoly((Fraction(g.h), Fraction(1))))), g.d)
    gamma = _diagonal(_horner(UniPoly(e.coeffs[1:])), g.d + g.h)
    out = set()
    for m in range(g.d + g.h + 1):
        b = beta[m - g.h] if m >= g.h else 0
        if m >= g.h and not alpha[m]:
            out.add("alpha_m = 0, beta_{m-h} != 0" if b else "alpha_m = beta_{m-h} = 0")
        if m >= g.h and alpha[m] and not b:
            out.add("beta_{m-h} = 0, alpha_m != 0")
        if m and alpha[m] and not gamma[m - 1] and not (b and g.h == 1):
            out.add("gamma_{m-1} = 0")   # s^{m-1} holds int 0, not []
    return out


def _generic_roots(n: int, offset: Fraction) -> list[Fraction]:
    return [offset + Fraction(k, 3) for k in range(n)]


# Euler roots 0..k-1 give θ(θ-1)···(θ-k+1) = s^k·D^k, so α vanishes below k; roots
# h..h+k-1 of E_d make β vanish below k; a double root 0 makes γ vanish low down
_LEAD_ROOTS = {
    "generic": lambda n: _generic_roots(n, Fraction(-7, 2)),
    "falling": lambda n: [Fraction(k) for k in range(n)],
    "double zero": lambda n: [Fraction(0), Fraction(0), Fraction(1), Fraction(2)]
    + _generic_roots(n - 4, Fraction(5, 2)),
}
_TAIL_ROOTS = {
    "generic": lambda n, h: _generic_roots(n, Fraction(-5, 4)),
    "shifted falling": lambda n, h: [Fraction(h + k) for k in range(3)]
    + _generic_roots(n - 3, Fraction(9, 4)),
}


@pytest.mark.parametrize("name", ["e2", "x2y5"])   # h = 1 and h = 3
def test_closed_form_export_matches_horner_on_hand_built_chains(request, name):
    op = build_operator(_binomial_spec(2, 5) if name == "x2y5" else request.getfixturevalue(name))
    branches = set()
    for lead in _LEAD_ROOTS.values():
        for tail in _TAIL_ROOTS.values():
            etas = cycle((Fraction(1), Fraction(2, 3), Fraction(-3)))
            chain_dh = _chain_with_roots(lead(op.d + op.h), etas)
            chain_d = _chain_with_roots(tail(op.d, op.h), etas)
            g = replace(op, chain_dh=chain_dh, chain_d=chain_d)
            g.P_dh, g.P_d   # the first reads run the kernel check on the chains
            assert to_differential_operator(g).to_json() == _horner_export(g).to_json()
            branches |= _zero_rule_branches(g)
    assert branches == {"alpha_m = 0, beta_{m-h} != 0", "alpha_m = beta_{m-h} = 0",
                        "beta_{m-h} = 0, alpha_m != 0", "gamma_{m-1} = 0"}
