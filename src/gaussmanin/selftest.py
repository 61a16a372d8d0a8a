"""Built-in identity suites, runnable without pytest via the CLI."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .abalgebra import ABElement, right_divide, theta_k
from .engine import PolySpec, analyze, build_operator
from .errors import GaussManinError


class _SuiteFailure(Exception):
    """An identity of a built-in suite does not hold."""


def _check(ok: bool) -> None:
    # an explicit raise, unlike assert, survives python -O
    if not ok:
        raise _SuiteFailure


def _random_element(rng: random.Random, max_a=4, max_b=4, n_terms=5) -> ABElement:
    draws = {}   # (b_power, a_power) -> (numerator, denominator); a later draw wins
    for _ in range(n_terms):
        key = (rng.randint(0, max_b), rng.randint(0, max_a))
        draws[key] = (rng.randint(-5, 5), rng.randint(1, 3))
    den = math.lcm(*(d for _, d in draws.values()))
    return ABElement.from_numerators({key: n * (den // d) for key, (n, d) in draws.items()}, den)


def _check_power_identities() -> None:
    a, b = ABElement.a(), ABElement.b()
    for nu in range(1, 9):
        _check(a ** nu * b == b * (a + b) ** nu)
        _check((a + b) ** nu == a ** nu + (a ** (nu - 1) * b) * nu)
        _check(a ** nu * b == b * a ** nu + (b * a ** (nu - 1) * b) * nu)


def _check_commutators() -> None:
    a, b = ABElement.a(), ABElement.b()
    for k in range(1, 11):
        bk = b ** k
        _check(a * bk - bk * a == b ** (k + 1) * k)


def _check_associativity(trials=100) -> None:
    rng = random.Random(20240)
    for _ in range(trials):
        x, y, z = (_random_element(rng) for _ in range(3))
        _check((x * y) * z == x * (y * z))


def _check_theta() -> None:
    rng = random.Random(20241)
    for _ in range(25):
        x, y = _random_element(rng, 3, 3, 4), _random_element(rng, 3, 3, 4)
        k = rng.randint(1, 5)
        _check(theta_k(theta_k(x, k), k) == x)
        _check(theta_k(x * y, k) == theta_k(y, k) * theta_k(x, k))


def _check_division() -> None:
    rng = random.Random(20242)
    for _ in range(50):
        dvs = _random_element(rng, 2, 2, 3) + ABElement.term(0, 3)
        p = _random_element(rng, 4, 4, 6)
        quot, rem = right_divide(p, dvs)
        _check(quot * dvs + rem == p)
        _check(rem.is_zero() or rem.a_degree < dvs.a_degree)


def _check_small_example() -> None:
    spec = PolySpec(((2, 0), (0, 3)), (1, 1), (0, 0))
    rel = analyze(spec)
    _check((rel.d, rel.h, rel.r, rel.c) == (5, 1, 6, Fraction(-1, 432)))
    op = build_operator(spec)
    _check(op.P_dh.is_monic_in_a() and op.P_d.is_monic_in_a())


_SUITES = (
    ("power identities a^ν·b = b·(a+b)^ν (ν ≤ 8)", _check_power_identities),
    ("commutators [a, b^k] = k·b^(k+1) (k ≤ 10)", _check_commutators),
    ("associativity on 100 random triples", _check_associativity),
    ("theta_k involution and anti-multiplicativity", _check_theta),
    ("right division multiply-back", _check_division),
    ("two-variable example end to end", _check_small_example),
)


def run(verbose: bool = True) -> int:
    failures = 0
    for name, fn in _SUITES:
        try:
            fn()
        except (_SuiteFailure, GaussManinError):   # a check inside the suite fired
            failures += 1
            if verbose:
                print(f"FAIL  {name}")
        else:
            if verbose:
                print(f"PASS  {name}")
    if verbose and failures:
        print(f"{failures} suite(s) failed")
    return 1 if failures else 0
