import dataclasses
import json
import random
from fractions import Fraction

import pytest

from conftest import FAMILY_ALPHAS, SPEC_DIR, random_spec, run_python
from gaussmanin import (
    GMOperator,
    PolySpec,
    analyze,
    build_operator,
    check_condition_C,
    monomial_chain,
    cyclic_symmetric_spec,
    symmetric_family_bracket,
    symmetric_family_operator,
)
from gaussmanin import engine
from gaussmanin.abalgebra import ABElement, HomogChain, theta_k
from gaussmanin.errors import (
    GammaTouchesH,
    InternalError,
    MalformedOperator,
    MalformedSpec,
    QuasiHomogeneous,
)

# the λ values at which the closed forms are compared
LAMS = (Fraction(1), Fraction(2), Fraction(-3, 7))


def test_condition_c(e2, e61):
    assert check_condition_C(e2)
    assert check_condition_C(e61)
    homog = PolySpec(((2, 0), (0, 2)), (1, 1), (0, 0))
    assert not check_condition_C(homog)


def test_malformed_specs():
    with pytest.raises(MalformedSpec):
        PolySpec(((2, 0), (2, 0)), (1, 1), (0, 0))          # duplicate columns
    with pytest.raises(MalformedSpec):
        PolySpec(((2, 0), (0, -3)), (1, 1), (0, 0))          # negative exponent
    with pytest.raises(MalformedSpec):
        PolySpec(((2, 0), (4, 0)), (1, 1), (0, 0))           # dependent columns
    with pytest.raises(MalformedSpec):
        PolySpec(((2, 0), (0, 3)), (1, 1), (0,))             # mu length


def test_analyze_rejects_quasi_homogeneous():
    homog = PolySpec(((2, 0), (0, 2)), (1, 1), (0, 0))
    with pytest.raises(QuasiHomogeneous):
        analyze(homog)


def test_analyze_e2(e2):
    rel = analyze(e2)
    assert rel.rho == (Fraction(1, 2), Fraction(1, 3))
    assert rel.r_abs == 6
    assert rel.p == (3, 2)
    assert (rel.d, rel.h, rel.r) == (5, 1, 6)
    assert rel.Delta == (0, 0, 6)
    assert rel.delta == (3, 2, 0)
    assert rel.eta == (Fraction(-3), Fraction(-2), Fraction(6))
    assert rel.c == Fraction(-1, 432)
    assert rel.H == () and rel.J_plus == (0, 1) and rel.J_minus == ()


def test_analyze_e61(e61):
    rel = analyze(e61)
    assert rel.rho == (Fraction(34, 61), Fraction(22, 61), Fraction(20, 61))
    assert (rel.d, rel.h, rel.r) == (61, 15, -61)
    assert rel.Delta == (34, 22, 20, 0)
    assert rel.delta == (0, 0, 0, 61)
    assert rel.c == Fraction(-(61**61 * 15**15), 34**34 * 22**22 * 20**20)


def test_analyze_e3(e3):
    rel = analyze(e3)
    assert rel.rho == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert rel.r_abs == 12
    assert rel.p == (6, 4, 3)
    assert (rel.d, rel.h) == (12, 1)
    assert rel.d + rel.h == 13
    assert rel.r == -12
    assert rel.c == Fraction(12**12, 6**6 * 4**4 * 3**3)


def test_analyze_e4_with_nonempty_H(e4):
    rel = analyze(e4)
    assert rel.rho == (Fraction(1, 2), Fraction(2, 3), Fraction(0))
    assert rel.H == (2,)
    assert rel.eta[2] == 0
    assert (rel.d, rel.h, rel.r) == (6, 1, -6)
    assert rel.c == Fraction(27, 4)
    assert rel.Delta == (3, 4, 0, 0) and rel.delta == (0, 0, 0, 6)


def test_monomial_chain_e2(e2):
    chain, kappa = monomial_chain(e2, (0, 0, 1))
    assert chain.factors == ((Fraction(6), Fraction(-5)),)
    assert kappa == 6

    chain0, kappa0 = monomial_chain(e2, (0, 0, 0))
    assert chain0.factors == () and kappa0 == 1

    # the x_i-exponents of the accumulated monomial feed the second factor:
    # after one copy of the lambda monomial they are (1, 1), giving -3·2 - 2·2
    chain2, kappa2 = monomial_chain(e2, (0, 0, 2))
    assert chain2.factors == ((Fraction(6), Fraction(-10)), (Fraction(6), Fraction(-5)))
    assert kappa2 == 36


def test_monomial_chain_respects_H(e4):
    with pytest.raises(GammaTouchesH):
        monomial_chain(e4, (0, 0, 1, 0))
    chain, kappa = monomial_chain(e4, (1, 0, 0, 0))
    assert kappa == analyze(e4).eta[0]


def test_monomial_chain_mu_shift(e2):
    # mu enters only through the start of the exponent accumulation
    shifted = e2.with_mu((1, 0))
    chain, _ = monomial_chain(shifted, (0, 0, 1))
    assert chain.factors == ((Fraction(6), Fraction(-8)),)   # -3·2 - 2·1


def test_build_operator_e2(e2):
    op = build_operator(e2)
    assert op.P_d.is_monic_in_a() and op.P_dh.is_monic_in_a()
    assert op.P_d.ab_degree == 5 and op.P_dh.ab_degree == 6
    assert op.c == Fraction(-1, 432) and op.r == 6
    # frozen chains from the matrix-inverse recursion
    assert op.chain_d.factors == (
        (Fraction(-2), Fraction(11)), (Fraction(-2), Fraction(8)),
        (Fraction(-3), Fraction(11)), (Fraction(-3), Fraction(7)),
        (Fraction(-3), Fraction(3)))
    assert op.chain_dh.factors == tuple(
        (Fraction(6), Fraction(-5 * (t + 1))) for t in range(5, -1, -1))


def test_operator_mod_b_identity(e2, e3, e4):
    lam = Fraction(3, 2)
    for spec in (e2, e3, e4):
        op = build_operator(spec)
        mod = op.specialized(lam).mod_b()
        assert mod[op.d + op.h] == 1
        assert mod[op.d] == -op.c * lam ** op.r
        assert all(mod[k] == 0 for k in range(op.d + op.h) if k != op.d)


def test_initial_form_of_full_operator(e2):
    op = build_operator(e2)
    lam = Fraction(3, 2)
    init = op.specialized(lam).initial_form()
    assert init == op.P_d * (-op.c * lam ** op.r)


def test_build_operator_checks_c_against_the_closed_form(e2, monkeypatch):
    rel = analyze(e2)
    monkeypatch.setattr(engine, "analyze", lambda spec: dataclasses.replace(rel, c=2 * rel.c))
    with pytest.raises(InternalError, match="closed-form c"):
        build_operator(e2)


def test_build_operator_checks_the_class_mod_b(e2, monkeypatch):
    # doubling η of the leftmost factor keeps c but breaks P_6 ≡ a^6 mod b:
    # κ from monomial_chain is then not the chain's a-coefficient
    real = engine.monomial_chain

    def perturbed(spec, gamma):
        chain, kappa = real(spec, gamma)
        (eta, theta), *rest = chain.factors
        return HomogChain(((2 * eta, theta), *rest)), kappa

    monkeypatch.setattr(engine, "monomial_chain", perturbed)
    with pytest.raises(InternalError, match="P_6 is not the Euler product"):
        build_operator(e2)


def test_symmetric_family_identical_across_members():
    from gaussmanin.ode import euler_form

    tuples = set()
    eulers = set()
    for alpha in FAMILY_ALPHAS:
        op = build_operator(cyclic_symmetric_spec(alpha))
        tuples.add((op.d, op.h, op.r, op.c))
        eulers.add((euler_form(op.P_d), euler_form(op.P_dh)))
    assert len(tuples) == 1
    assert len(eulers) == 1
    d, h, r, c = tuples.pop()
    assert (d, h, r) == (4, 1, 5)
    # the general algorithm's constant differs from the printed closed form
    # by the factor |alpha|^{|alpha|}: the critical values confirm this one
    assert c == Fraction(1, 3125)
    assert c * 5**5 == (5 - 4) ** (5 - 4)


def test_symmetric_family_monic_parts_match_closed_form():
    op = build_operator(cyclic_symmetric_spec((5, 0, 0, 0)))
    w = 5
    prod = ABElement.one()
    for p in range(w - 2, -1, -1):
        prod = prod * ABElement.linear(Fraction(1), Fraction(-4 * (p + 1), w))
    assert op.P_dh == ABElement.linear(Fraction(1), Fraction(-4)) * prod
    tail = ABElement.one()
    for rr in (3, 2, 1):
        tail = tail * ABElement.linear(Fraction(1), Fraction(-rr))
    assert op.P_d == ABElement.linear(Fraction(1), Fraction(-4)) * tail


def test_symmetric_family_general_degrees():
    for w in (5, 6, 7):
        op = build_operator(cyclic_symmetric_spec((w - 2, 1, 1, 0)))
        assert (op.d, op.h, op.r) == (4, w - 4, w)
        assert op.c * Fraction(w ** w) == (w - 4) ** (w - 4)


def test_family_bracket_theta4_invariant():
    for lam in LAMS:
        bracket = symmetric_family_bracket(5, lam)
        assert theta_k(bracket, 4) == bracket


def test_family_bracket_degree_six():
    # the λ^6 part is -2^2·(a-3b)(a-2b)(a-b)
    tail = ABElement.one()
    for rr in (3, 2, 1):
        tail = tail * ABElement.linear(Fraction(1), Fraction(-rr))
    for lam in LAMS:
        lam_part = symmetric_family_bracket(6, lam) - symmetric_family_bracket(6, Fraction(0))
        assert lam_part == tail * (lam ** 6 * Fraction(-4))


@pytest.mark.parametrize("w", [5, 6, 7])
def test_family_bracket_matches_right_multiplied_product(w):
    prod = ABElement.one()
    for p in range(w - 2, -1, -1):
        prod = prod * ABElement.linear(Fraction(1), Fraction(-4 * (p + 1), w))
    tail = ABElement.one()
    for rr in (3, 2, 1):
        tail = tail * ABElement.linear(Fraction(1), Fraction(-rr))
    for lam in LAMS:
        scale = (w - 4) ** (w - 4) * lam ** w
        assert symmetric_family_bracket(w, lam) == prod - tail * scale


def test_symmetric_family_operator_shape():
    for lam in LAMS:
        op5 = symmetric_family_operator(5, lam)
        assert op5.a_degree == 5
        assert op5.mod_b()[5] == 1
    with pytest.raises(MalformedSpec):
        symmetric_family_operator(4, Fraction(1))


def test_chain_vs_closed_form_on_random_specs():
    rng = random.Random(21)
    for _ in range(20):
        spec = random_spec(rng, max_vars=3, max_entry=6, max_weight=30)
        op = build_operator(spec)   # internal asserts: c chain == closed form,
        assert op.P_d.is_monic_in_a()  # mod-b collapse, relation invariants
        assert op.P_dh.is_monic_in_a()


def test_P_is_built_once_on_first_read(e2, monkeypatch):
    calls = []
    real = engine._monic_product

    def counted(chain, error):
        calls.append(chain.degree)
        return real(chain, error)

    monkeypatch.setattr(engine, "_monic_product", counted)
    op = build_operator(e2)
    assert calls == []
    assert op.P_dh is op.P_dh and op.P_dh.ab_degree == 6
    assert calls == [6]


def test_spec_json_roundtrip(e61):
    assert PolySpec.from_json(e61.to_json()) == e61
    with pytest.raises(MalformedSpec):
        PolySpec.from_json({"nvars": 2, "monomials": [[2, 0]], "lambda_monomial": [1, 1]})


def test_operator_json_roundtrip(e2):
    op = build_operator(e2)
    back = GMOperator.from_json(op.to_json())
    assert back.P_d == op.P_d and back.P_dh == op.P_dh
    assert back.c == op.c and back.r == op.r
    assert back.spec == op.spec
    assert back.chain_d.factors == op.chain_d.factors


def test_operator_from_json_refuses_chains_that_disagree_with_P(e2):
    # the ODE export reads the chains, so a chain that is not P's must not load
    good = build_operator(e2).to_json()
    data = json.loads(json.dumps(good))
    eta, theta = data["chain_d"][2]
    data["chain_d"][2] = [eta, str(Fraction(theta) + 1)]
    with pytest.raises(MalformedSpec, match="P_5 is not the Euler product"):
        GMOperator.from_json(data)
    data = json.loads(json.dumps(good))   # a term of another degree, and then no term
    data["P_dh"]["terms"].append({"b": 0, "a": 0, "c": [[0, "1"]]})
    with pytest.raises(MalformedSpec, match="P_6 is not the Euler product"):
        GMOperator.from_json(data)
    data["P_dh"]["terms"] = []
    with pytest.raises(MalformedSpec, match="P_6 is not the Euler product"):
        GMOperator.from_json(data)


@pytest.mark.parametrize("theta", ["0", "-7/3"])
def test_operator_from_json_refuses_a_factor_with_eta_zero(e2, theta):
    # the chain's a-coefficient is then 0: refused before P is divided by it
    for key, q in (("chain_dh", 6), ("chain_d", 5)):
        data = build_operator(e2).to_json()
        data[key][1] = ["0", theta]
        with pytest.raises(MalformedOperator, match=f"P_{q} is not the Euler product"):
            GMOperator.from_json(data)


def test_operator_from_json_refuses_c_r_or_a_chain_length_off_the_relation(e2):
    # with c doubled the chains still certify P, and the ODE export was wrong
    good = build_operator(e2).to_json()
    assert GMOperator.from_json(good).to_json() == good
    for key, value in (("c", str(2 * Fraction(good["c"]))), ("r", good["r"] + 1),
                       ("chain_d", good["chain_d"][:-1])):
        data = json.loads(json.dumps(good))
        data[key] = value
        with pytest.raises(MalformedOperator, match="disagrees with the relation"):
            GMOperator.from_json(data)


def test_operator_from_json_refuses_chains_that_are_not_the_spec_s(e2):
    # the chains and P stay e2's with μ = 0 while the spec's μ moves
    data = build_operator(e2).to_json()
    data["spec"]["mu"] = [1, 0]
    with pytest.raises(MalformedOperator, match="chain of P_6 is not the spec's"):
        GMOperator.from_json(data)


def test_operator_from_json_refuses_a_relation_that_is_not_the_spec_s(e2):
    # the relation, chains and P stay e2's while the spec's λ-monomial moves
    data = build_operator(e2).to_json()
    data["spec"]["lambda_monomial"] = [1, 2]
    with pytest.raises(MalformedOperator, match="relation is not the spec's"):
        GMOperator.from_json(data)


def test_analyze_cached_and_shared_across_mu(e2):
    assert analyze(e2) is analyze(e2)
    assert analyze(e2.with_mu((3, 1))) is analyze(e2)


def test_e2_euler_polynomials_frozen(e2):
    # hand derivation: the degree-6 chain has factors (a - 5k/6·b), so the
    # Euler polynomial is Π(θ + k/6); the degree-5 side collapses to
    # θ^2·(θ - 1/3)(θ - 2/3)(θ - 1/2)
    from gaussmanin.ode import euler_form
    from gaussmanin.scalars import UniPoly

    op = build_operator(e2)
    expected_dh = UniPoly.const(Fraction(1))
    for k in range(1, 7):
        expected_dh = expected_dh * UniPoly((Fraction(k, 6), Fraction(1)))
    assert euler_form(op.P_dh) == expected_dh

    expected_d = UniPoly((Fraction(0), Fraction(0), Fraction(1)))
    for root in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)):
        expected_d = expected_d * UniPoly((-root, Fraction(1)))
    assert euler_form(op.P_d) == expected_d


# a perturbed ρ and a non-monic Euler polynomial each break an invariant
_BROKEN_INVARIANTS = """
import sys
from fractions import Fraction
from gaussmanin import engine, ode
from gaussmanin.abalgebra import ABElement
from gaussmanin.errors import InternalError

solve = engine.mat_solve
engine.mat_solve = lambda a, b: [x + 1 for x in solve(a, b)]
engine._analyze_columns.cache_clear()
try:
    engine.analyze(engine.load_spec_file(sys.argv[1]))
except InternalError as err:
    print(err)
else:
    sys.exit(1)

euler = ode.euler_form
ode.euler_form = lambda p: euler(p).scale(Fraction(2))
try:
    ode.bernstein_polynomial(ABElement.a() ** 2 + ABElement.b() ** 2)
except InternalError as err:
    print(err)
else:
    sys.exit(1)
"""


def test_invariant_checks_raise_under_python_O():
    for flags in ((), ("-O",)):
        proc = run_python(*flags, "-c", _BROKEN_INVARIANTS, str(SPEC_DIR / "e2.json"))
        assert proc.returncode == 0, proc.stderr
        assert "ρ does not solve" in proc.stdout
        assert "not monic of degree 2" in proc.stdout


def test_euler_product_certificate_reads_the_b_terms(monkeypatch, e2):
    # one b-term keeps the class mod b, so only a check that reads b-terms sees it
    expand = HomogChain.expand
    monkeypatch.setattr(HomogChain, "expand", lambda chain: expand(chain) + ABElement(
        {(1, chain.degree - 1): Fraction(1)}))
    with pytest.raises(InternalError, match="P_6 is not the Euler product"):
        build_operator(e2).P_dh
