import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_ALPHAS, SPEC_DIR, random_spec, run_python
from laurent_arith import Laurent
from gaussmanin import PolySpec, analyze, cli, cyclic_symmetric_spec, load_spec_file
from gaussmanin.errors import MalformedRelation, MalformedSpec
from gaussmanin.intdep import (
    DependenceRelation,
    _mul,
    dependence_relation,
    linear_forms,
    verify_identity,
)
from gaussmanin.jsonout import json_text, write_json
from gaussmanin.scalars import LaurentLambda, mat_det


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
    assert back.to_json() == relation.to_json()


def test_verify_identity_random_specs():
    rng = random.Random(77)
    for _ in range(3):
        spec = random_spec(rng, max_vars=3, max_entry=5, max_weight=12)
        assert verify_identity(dependence_relation(spec))


# ---------------------------------------------------------------------------
# Oracles: the expansion over exponent-tuple keys and the x-space check over
# (λ-exponent, x-tuple) keys with rational coefficients, as they stood before
# both moved onto packed integer keys
# ---------------------------------------------------------------------------

def _oracle_coefficients(spec) -> list[dict]:
    """The coefficient of each power of f: u-exponent tuple -> Laurent."""
    rel = analyze(spec)
    n, mono = spec.n_vars, spec.n_monomials
    det = mat_det(spec.mtilde())
    rows = [[int(rel.mtilde_inv[j][k] * det) for k in range(mono)] for j in range(mono)]

    def product(vec):
        poly = {(0,) * (n + 1): 1}
        for j in range(mono):
            for _ in range(vec[j]):
                out = {}
                for exps, c in poly.items():
                    for v, fc in enumerate(rows[j]):
                        if fc:
                            key = exps[:v] + (exps[v] + 1,) + exps[v + 1:]
                            out[key] = out.get(key, 0) + c * fc
                poly = {k: c for k, c in out.items() if c}
        return poly

    dh, d = rel.d + rel.h, rel.d
    kappa_dh = Fraction(1)
    for j in range(mono):
        kappa_dh *= rel.eta[j] ** rel.Delta[j]
    coeffs = [{} for _ in range(dh + 1)]
    for exps, c in product(rel.Delta).items():
        coeffs[exps[0]][exps[1:]] = Laurent.const(c / (det ** dh * kappa_dh))
    lam = Laurent.monomial(rel.r)
    for exps, c in product(rel.delta).items():
        k, e = exps[0], exps[1:]
        cur = coeffs[k].get(e, Laurent.const(0)) - lam * (c / (det ** d * kappa_dh))
        if cur:
            coeffs[k][e] = cur
        else:
            coeffs[k].pop(e, None)
    return coeffs


def _oracle_relation(spec) -> DependenceRelation:
    rel = analyze(spec)
    return DependenceRelation.from_coefficients(spec, rel.d + rel.h, rel.r,
                                                _oracle_coefficients(spec))


def _x_mul(p, q):
    out = {}
    for (l1, e1), c1 in p.items():
        for (l2, e2), c2 in q.items():
            key = (l1 + l2, tuple(a + b for a, b in zip(e1, e2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _x_add_scaled(p, q, c):
    out = dict(p)
    for le, v in c.coeffs.items():
        for (l2, e2), c2 in q.items():
            key = (le + l2, e2)
            out[key] = out.get(key, 0) + v * c2
    return {k: v for k, v in out.items() if v}


def _oracle_verify(relation: DependenceRelation) -> bool:
    spec = relation.spec
    n = spec.n_vars
    cols = [(0, m) for m in spec.monomials] + [(1, spec.lambda_monomial)]
    f = {key: Fraction(1) for key in cols}
    us = [{key: Fraction(key[1][i]) for key in cols if key[1][i]} for i in range(n)]
    one = {(0, (0,) * n): Fraction(1)}
    powers = []
    for i in range(n):
        tab = [one]
        for _ in range(max((e[i] for c in relation.coefficients for e in c), default=0)):
            tab.append(_x_mul(tab[-1], us[i]))
        powers.append(tab)
    acc = {}
    for k in range(relation.degree, -1, -1):
        acc = _x_mul(acc, f)
        for e, c in relation.coefficients[k].items():
            mono = one
            for i in range(n):
                if e[i]:
                    mono = _x_mul(mono, powers[i][e[i]])
            acc = _x_add_scaled(acc, mono, c)
    return not acc


def _perturbed(relation: DependenceRelation, k: int, e, delta: Laurent):
    """relation with delta added to the coefficient of f^k·u^e."""
    coeffs = [dict(c) for c in relation.coefficients]
    cur = delta + coeffs[k].get(e, 0)
    if cur:
        coeffs[k][e] = cur
    else:
        coeffs[k].pop(e, None)
    return DependenceRelation.from_coefficients(relation.spec, relation.degree,
                                                relation.r, coeffs)


def _perturbations(relation: DependenceRelation):
    """The λ^r part of one coefficient plus 1/7, and the constant term of
    f^(d+h-1) plus 1."""
    k, e = next((k, e) for k, coeff in enumerate(relation.coefficients)
                for e, c in coeff.items() if relation.r in c.coeffs)
    zero = (0,) * relation.spec.n_vars
    return [_perturbed(relation, k, e, Laurent.monomial(relation.r, Fraction(1, 7))),
            _perturbed(relation, relation.degree - 1, zero, Laurent.const(1))]


@pytest.mark.parametrize("name", ["e2", "e3", "e4"])
def test_verify_identity_rejects_a_perturbed_relation(request, name):
    relation = dependence_relation(request.getfixturevalue(name))
    for wrong in _perturbations(relation):
        assert not verify_identity(wrong)
        assert not _oracle_verify(wrong)


@pytest.mark.parametrize("name", ["e2", "e3", "e4", "quintic"])
def test_packed_expansion_matches_the_tuple_oracle(request, name):
    spec = request.getfixturevalue(name)
    relation = dependence_relation(spec)
    assert list(relation.coefficients) == _oracle_coefficients(spec)
    assert relation.to_json() == _oracle_relation(spec).to_json()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_packed_expansion_and_check_match_the_oracles_on_random_specs(seed):
    spec = random_spec(random.Random(seed), max_vars=3, max_entry=5, max_weight=10)
    relation = dependence_relation(spec)
    assert list(relation.coefficients) == _oracle_coefficients(spec)
    assert relation.to_json() == _oracle_relation(spec).to_json()
    for candidate in [relation, *_perturbations(relation)]:
        assert verify_identity(candidate) == _oracle_verify(candidate)


# the oracle's x-space expansion grows fast with the number of variables
_ORACLE_WEIGHT = {2: 12, 3: 8, 4: 6}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.booleans())
def test_certificate_matches_the_x_space_oracle_in_2_to_4_variables(seed, n, positive):
    rng = random.Random(seed)
    while True:
        spec = random_spec(rng, max_vars=4, max_entry=4, max_weight=_ORACLE_WEIGHT[n])
        if spec.n_vars == n and (analyze(spec).r > 0) == positive:
            break
    relation = dependence_relation(spec)
    for candidate in [relation, *_perturbations(relation)]:
        assert verify_identity(candidate) == _oracle_verify(candidate)


# ---------------------------------------------------------------------------
# The f-power recurrence against the repeated product it replaced
# ---------------------------------------------------------------------------

def _repeated_products(spec) -> tuple[dict, dict]:
    """det^(d+h)·Π L^Δ and det^d·Π L^δ on the relation's packed keys, by d+h
    and d products with one linear form, as `dependence_relation` built them
    before the recurrence."""
    rel = analyze(spec)
    n, mono = spec.n_vars, spec.n_monomials
    base = rel.d + rel.h + 1
    places = [1] + [base ** (n - i) for i in range(n)]
    det = mat_det(spec.mtilde())
    forms = [{places[v]: int(x * det) for v, x in enumerate(row) if x} for row in rel.mtilde_inv]

    def product(vec):
        poly = {0: 1}
        for j in range(mono):
            for _ in range(vec[j]):
                poly = _mul(poly, forms[j])
        return poly

    return product(rel.Delta), product(rel.delta)


def _check_against_the_repeated_product(spec):
    relation = dependence_relation(spec)
    assert [nums for nums, _ in relation.parts] == list(_repeated_products(spec))


def _support(vec) -> int:
    return sum(1 for a in vec if a)


def _specs_by_support() -> dict:
    """For m = 1..4, the first seeded random spec one of whose products has m
    factors."""
    rng = random.Random(27)
    found = {}
    while not found.keys() >= {1, 2, 3, 4}:
        spec = random_spec(rng, max_vars=4, max_entry=4, max_weight=16)
        rel = analyze(spec)
        for vec in (rel.Delta, rel.delta):
            found.setdefault(_support(vec), spec)
    return found


SPECS_BY_SUPPORT = _specs_by_support()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_recurrence_matches_the_repeated_product_at_each_number_of_factors(m):
    _check_against_the_repeated_product(SPECS_BY_SUPPORT[m])


@pytest.mark.parametrize("name", ["e2", "e3", "e4", "quintic"])
def test_recurrence_matches_the_repeated_product_on_the_shipped_specs(request, name):
    _check_against_the_repeated_product(request.getfixturevalue(name))


def test_quintic_delta_has_no_power_above_one(quintic):
    # q = m: every block of P_d comes from all the blocks above it but P_q's
    rel = analyze(quintic)
    assert sum(rel.delta) == _support(rel.delta) == 4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.booleans())
def test_recurrence_matches_the_repeated_product_in_2_to_4_variables(seed, n, positive):
    rng = random.Random(seed)
    while True:
        spec = random_spec(rng, max_vars=4, max_entry=5, max_weight=16)
        if spec.n_vars == n and (analyze(spec).r > 0) == positive:
            break
    _check_against_the_repeated_product(spec)


# `intdep --verify` with one line of _power_product's source replaced: argv
# holds the line as written, the faulted line and the spec file.  A remainder
# ends in InternalError and exit 1; a fault whose divisions all come out exact
# makes --verify print FAIL and exit 1
_FAULTY_RECURRENCE = r"""
import inspect, sys, textwrap
from gaussmanin import cli, intdep
line, faulted, path = sys.argv[1:]
src = textwrap.dedent(inspect.getsource(intdep._power_product))
if line not in src:
    sys.exit(3)
ns = {}
exec(src.replace(line, faulted), vars(intdep), ns)
intdep._power_product = ns["_power_product"]
sys.exit(cli.main(["intdep", path, "--verify"]))
"""
_RECURRENCE_FAULTS = {
    # C_1(k) at the top step, every coefficient plus 1
    "multiplier": ("mult = {u: -(k + s) * c for u, c in Qs[m - s].items()}",
                   "mult = {u: -(k + s) * c + (k + s == q and s == 1)"
                   " for u, c in Qs[m - s].items()}"),
    # P_q plus 1; and for the λ^r product only (q = d < d+h), P_q doubled, which
    # doubles P, leaves every division exact and keeps the relation monic
    "seed block plus 1": ("forms[j][1] ** vec[j] for j in S)}]",
                          "forms[j][1] ** vec[j] for j in S) + 1}]"),
    "seed block doubled": ("forms[j][1] ** vec[j] for j in S)}]",
                           "forms[j][1] ** vec[j] for j in S) * (1 + (q < base - 1))}]"),
}


@pytest.mark.parametrize("fault", sorted(_RECURRENCE_FAULTS))
def test_a_faulted_recurrence_never_passes_with_or_without_python_O(fault):
    line, faulted = _RECURRENCE_FAULTS[fault]
    proc = run_python("-c", _FAULTY_RECURRENCE, line, line, str(SPEC_DIR / "e2.json"))
    assert proc.returncode == 0 and proc.stdout.endswith("check: PASS\n"), proc.stderr
    for name in ("e2", "e3", "e4", "quintic"):
        path = str(SPEC_DIR / f"{name}.json")
        for flags in ((), ("-O",)):
            proc = run_python(*flags, "-c", _FAULTY_RECURRENCE, line, faulted, path)
            assert proc.returncode == 1, (name, proc.stdout[-200:], proc.stderr)
            assert "PASS" not in proc.stdout
            assert proc.stderr.startswith("internal error: ")
            assert (proc.stdout.endswith("check: FAIL\n")
                    or "does not divide" in proc.stderr), (name, proc.stderr)


# Each fault makes verify_identity return False, never raise; argv holds the
# spec files.  A form row is faulted through a patched analyze, once in a
# u-entry and once in its f-entry: set to 0, or to 1 on H, where it is 0.
_FAULTS = r"""
import dataclasses, sys
from gaussmanin import intdep, load_spec_file
from gaussmanin.intdep import dependence_relation, verify_identity

for path in sys.argv[1:]:
    relation = dependence_relation(load_spec_file(path))
    rel = intdep.analyze(relation.spec)
    if not verify_identity(relation):
        sys.exit(f"{path}: the unfaulted relation fails")
    for i, (nums, scale) in enumerate(relation.parts):
        faulted = []
        for block in (0, 1):
            key = min(k for k in nums if k % relation.base == block)
            faulted.append((f"f^{block}", ({**nums, key: nums[key] + 1}, scale)))
        faulted.append(("scale", (nums, 2 * scale)))
        for label, part in faulted:
            parts = list(relation.parts)
            parts[i] = part
            wrong = dataclasses.replace(relation, parts=tuple(parts))
            print(path, f"part {i}, {label}", verify_identity(wrong))
    # the λ^r product has degree d < d+h, so u_{n-1}'s digit may grow by one:
    # times 1 + u_{n-1} it still solves Q·∂_f P = R·P, with f^d block 1 + u_{n-1}
    nums, scale = relation.parts[1]
    times = dict(nums)
    for key, c in nums.items():
        times[key + relation.base] = times.get(key + relation.base, 0) + c
    wrong = dataclasses.replace(relation, parts=(relation.parts[0], (times, scale)))
    print(path, "part 1 times 1 + u", verify_identity(wrong))
    print(path, "r + 1", verify_identity(dataclasses.replace(relation, r=relation.r + 1)))
    analyze = intdep.analyze
    for j, row in enumerate(rel.mtilde_inv):
        for v, value in ((1, row[1] + 1), (0, 0 if row[0] else 1)):
            rows = list(rel.mtilde_inv)
            rows[j] = row[:v] + (value,) + row[v + 1:]
            intdep.analyze = lambda spec: dataclasses.replace(rel, mtilde_inv=tuple(rows))
            print(path, f"row {j}, entry {v}", verify_identity(relation))
    intdep.analyze = analyze
"""


def test_every_injected_fault_fails_the_certificate_under_python_O():
    specs = [str(SPEC_DIR / f"{name}.json") for name in ("e2", "e3", "e4", "quintic")]
    for flags in ((), ("-O",)):
        proc = run_python(*flags, "-c", _FAULTS, *specs)
        assert proc.returncode == 0, proc.stderr
        results = [line.rsplit(" ", 1)[1] for line in proc.stdout.splitlines()]
        # per spec: 2 parts × (2 coefficients + 1 scale), 2 more faults and 2 per form row
        assert len(results) == sum(8 + 2 * load_spec_file(path).n_monomials for path in specs)
        assert set(results) == {"False"}


def test_from_json_refuses_a_relation_without_its_lambda_r_part(e2):
    data = dependence_relation(e2).to_json()
    for entry in data["coefficients"]:
        for term in entry["terms"]:
            term["c"] = [item for item in term["c"] if item[0] != 6]
        entry["terms"] = [term for term in entry["terms"] if term["c"]]
    with pytest.raises(MalformedRelation, match="not the spec's expansion"):
        DependenceRelation.from_json(data, e2)


def _refuse(*args, **kwargs):
    raise AssertionError("a LaurentLambda was built")


# perfbench's workloads.intdep_sized picks the benchmark's generated intdep
# specs by this count, and its traced intdep.relation_terms reads it too
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_term_count_matches_the_oracle_and_builds_no_laurent(seed):
    spec = random_spec(random.Random(seed), max_vars=3, max_entry=5, max_weight=10)
    want = sum(len(c) for c in _oracle_coefficients(spec))
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__init__", "const", "monomial", "from_json"):
            mp.setattr(LaurentLambda, name, _refuse)
        relation = dependence_relation(spec)
        assert sum(len(c) for c in relation.coefficients) == want


def test_coefficient_views_are_read_only_and_keyed_by_u_exponents(e2):
    top = dependence_relation(e2).coefficients[6]
    assert dict(top) == {(0, 0): 1}
    assert (0, 0, 0) not in top and (7, 0) not in top and (0, -1) not in top
    with pytest.raises(TypeError):
        top[(0, 0)] = 2


def test_from_coefficients_refuses_a_third_lambda_power(e2):
    relation = dependence_relation(e2)
    coeffs = [dict(c) for c in relation.coefficients]
    coeffs[0][(0, 0)] = Laurent.monomial(relation.r + 1)
    with pytest.raises(ValueError):
        DependenceRelation.from_coefficients(e2, relation.degree, relation.r, coeffs)


@pytest.mark.parametrize("name", ["e2", "e3"])   # r = 6 and r = -12
def test_to_json_matches_the_views_where_both_lambda_powers_meet(request, name):
    # h = 1, so f^(d+h-1) is the top power of the λ^r product and the second
    # perturbation gives its u^0 term a λ^0 part as well
    relation = dependence_relation(request.getfixturevalue(name))
    wrong = _perturbations(relation)[1]
    zero = (0,) * relation.spec.n_vars
    assert len(wrong.coefficients[relation.degree - 1][zero].coeffs) == 2
    for entry in wrong.to_json()["coefficients"]:
        view = wrong.coefficients[entry["f_power"]]
        assert [t["u"] for t in entry["terms"]] == [list(e) for e in view]
        assert [t["c"] for t in entry["terms"]] == [c.to_json() for c in view.values()]
    with pytest.raises(MalformedRelation, match="not the spec's expansion"):
        DependenceRelation.from_json(wrong.to_json(), wrong.spec)


# ---------------------------------------------------------------------------
# The streamed JSON: the bytes of json.dumps(to_json(), indent=2), one power
# of f at a time
# ---------------------------------------------------------------------------

def _streamed(relation: DependenceRelation, verified=None) -> list[str]:
    pieces = []
    relation.write_json(pieces.append, verified)
    return pieces


def _dumped(relation: DependenceRelation, verified=None) -> str:
    obj = relation.to_json()
    if verified is not None:
        obj["verified"] = verified
    return json.dumps(obj, indent=2) + "\n"


def _seeded_specs() -> dict:
    """The first seeded random spec for each number of variables 2..4 and
    each sign of r."""
    rng = random.Random(18)
    found = {}
    while len(found) < 6:
        spec = random_spec(rng, max_vars=4, max_entry=4, max_weight=12)
        found.setdefault((spec.n_vars, analyze(spec).r > 0), spec)
    return found


SEEDED_SPECS = _seeded_specs()


@pytest.mark.parametrize("key", sorted(SEEDED_SPECS), ids=lambda k: f"n{k[0]}-r{'+' if k[1] else '-'}")
def test_streamed_json_matches_json_dumps_on_random_specs(key):
    relation = dependence_relation(SEEDED_SPECS[key])
    for verified in (None, True, False):
        assert "".join(_streamed(relation, verified)) == _dumped(relation, verified)


@pytest.mark.parametrize("name", ["e2", "e3"])   # r = 6 and r = -12
def test_streamed_json_matches_json_dumps_where_both_lambda_powers_meet(request, name):
    relation = dependence_relation(request.getfixturevalue(name))
    for wrong in _perturbations(relation):
        for verified in (None, True):
            assert "".join(_streamed(wrong, verified)) == _dumped(wrong, verified)


def test_streamed_json_of_an_empty_power_of_f(e2):
    relation = dependence_relation(e2)
    coeffs = [dict(c) for c in relation.coefficients]
    coeffs[2] = {}
    wrong = DependenceRelation.from_coefficients(e2, relation.degree, relation.r, coeffs)
    assert '"terms": []' in _dumped(wrong)
    assert "".join(_streamed(wrong)) == _dumped(wrong)


def _write_peak(write) -> tuple[int, int, int]:
    """tracemalloc's peak while write(sink) runs, the text's length and its
    longest piece, with a sink that keeps only the lengths."""
    sizes = []
    tracemalloc.start()
    try:
        write(lambda piece: sizes.append(len(piece)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(sizes), max(sizes)


def test_streamed_json_holds_neither_the_tree_nor_the_text():
    # x^10 + y^13 + λxy: 2.8 MB of text in 131 powers of f; streamed, the
    # peak was 0.07 of the text, and through to_json's tree 2.1 times it
    spec = PolySpec(((10, 0), (0, 13)), (1, 1), (0, 0))
    relation = dependence_relation(spec)
    peak, size, longest = _write_peak(relation.write_json)
    assert size > 2_800_000
    assert peak < size / 5
    tree_peak, tree_size, _ = _write_peak(lambda w: write_json(relation.to_json(), w))
    assert tree_size == size and tree_peak > size / 5
    blocks = [json_text(block, "\n    ") for block in relation.to_json()["coefficients"]]
    assert longest == max(map(len, blocks))


def test_cli_streams_the_relation_without_to_json(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("intdep --format json built the to_json tree")

    monkeypatch.setattr(DependenceRelation, "to_json", refuse)
    assert cli.main(["intdep", str(SPEC_DIR / "e3.json"), "--format", "json", "--verify"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["degree", "r", "factored", "coefficients", "verified"]
    assert data["verified"] is True


# ---------------------------------------------------------------------------
# from_json refuses what is not the spec's relation
# ---------------------------------------------------------------------------

def test_from_json_refuses_a_relation_that_is_not_monic(e2):
    data = dependence_relation(e2).to_json()
    data["coefficients"][6]["terms"] = []
    with pytest.raises(MalformedRelation, match="not monic"):
        DependenceRelation.from_json(data, e2)


def test_from_json_refuses_a_degree_other_than_d_plus_h(e2):
    data = dependence_relation(e2).to_json()
    data["degree"] = 9
    with pytest.raises(MalformedRelation, match="disagrees with the spec"):
        DependenceRelation.from_json(data, e2)


def test_from_json_refuses_a_missing_key(e2):
    data = dependence_relation(e2).to_json()
    del data["coefficients"]
    with pytest.raises(MalformedRelation, match="coefficients") as exc:
        DependenceRelation.from_json(data, e2)
    assert isinstance(exc.value, MalformedSpec) and isinstance(exc.value, ValueError)
    assert isinstance(exc.value.__cause__, KeyError)
