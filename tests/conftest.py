import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gaussmanin import PolySpec, check_condition_C, load_spec_file
from gaussmanin.abalgebra import ABElement, HomogChain
from gaussmanin.errors import MalformedSpec

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

# the eight cyclically symmetric quintic-type exponents
FAMILY_ALPHAS = (
    (5, 0, 0, 0), (4, 1, 0, 0), (4, 0, 1, 0), (3, 1, 1, 0),
    (3, 1, 0, 1), (2, 2, 1, 0), (2, 2, 0, 1), (2, 0, 2, 1),
)

# a table of primes from 4099 up: as denominators their product makes large
# coefficients with many prime factors
ROOT_PRIMES = (4099, 4111, 4127, 4129, 4133, 4139, 4153, 4157, 5003, 5009,
               5011, 5021, 5023, 5039, 5051, 5059, 6007, 6011, 6029, 6037)


@pytest.fixture(scope="session")
def e2():
    return load_spec_file(SPEC_DIR / "e2.json")


@pytest.fixture(scope="session")
def e3():
    return load_spec_file(SPEC_DIR / "e3.json")


@pytest.fixture(scope="session")
def e4():
    """x^2 + y^3 + z^4 + λ·x·y^2: has a nonempty zero-weight set H."""
    return load_spec_file(SPEC_DIR / "e4.json")


@pytest.fixture(scope="session")
def e61():
    return load_spec_file(SPEC_DIR / "e61.json")


@pytest.fixture(scope="session")
def quintic():
    return load_spec_file(SPEC_DIR / "quintic.json")


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(SPEC_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_python(*argv, timeout=60):
    """Run a child Python on this checkout's src/ and capture its output."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=src_env(), timeout=timeout)


def random_element(rng: random.Random, max_a=4, max_b=4, n_terms=5) -> ABElement:
    terms = {}
    for _ in range(n_terms):
        key = (rng.randint(0, max_b), rng.randint(0, max_a))
        terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ABElement(terms)


def random_chain(rng: random.Random, length: int) -> HomogChain:
    factors = []
    for _ in range(length):
        eta = Fraction(0)
        while eta == 0:
            eta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        theta = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        factors.append((eta, theta))
    return HomogChain(tuple(factors))


def random_monic_chain(rng: random.Random, length: int) -> ABElement:
    out = ABElement.one()
    for _ in range(length):
        out = out * ABElement.linear(Fraction(1), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    return out


def random_spec(rng: random.Random, max_vars=4, max_entry=6, max_weight=40) -> PolySpec:
    """A random spec accepted by the analyzer, with d+h capped to keep chain
    expansions quick; retries until one is found."""
    from gaussmanin import analyze

    while True:
        n = rng.randint(2, max_vars)
        cols = set()
        while len(cols) < n + 1:
            cols.add(tuple(rng.randint(0, max_entry) for _ in range(n)))
        cols = list(cols)
        rng.shuffle(cols)
        try:
            spec = PolySpec(tuple(cols[:n]), cols[n], tuple([0] * n))
            if not check_condition_C(spec):
                continue
            rel = analyze(spec)
        except MalformedSpec:
            continue
        if rel.d + rel.h <= max_weight:
            return spec
