"""Construction of the Gauss-Manin operator P = P_{d+h} - c·λ^r·P_d for a
polynomial f = Σ x^{α_j} + λ·x^{α_{n+2}} with n+2 monomials in n+1 variables
that is not quasi-homogeneous.

The combinatorics: write the λ-monomial exponent as a rational combination
of the others, clear denominators into the unique multiplicative relation
m^Δ = λ^r·m^δ between the monomials of f, then express multiplication by
each monomial as a degree-1 element η·a + θ·b by inverting the exponent
matrix with a row of ones on top.  Chaining those factors along Δ and δ
yields the two monic homogeneous parts of the operator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .abalgebra import ABElement, HomogChain
from .errors import GammaTouchesH, InternalError, MalformedOperator, MalformedSpec, QuasiHomogeneous
from .scalars import LaurentLambda, mat_inverse, mat_rank, mat_solve


@dataclass(frozen=True)
class PolySpec:
    """Exponent data of f: columns of the exponent matrix plus the monomial
    exponent β of the numerator μ = x^β."""

    monomials: tuple[tuple[int, ...], ...]   # n+1 unit-coefficient monomials
    lambda_monomial: tuple[int, ...]         # α_{n+2}
    mu: tuple[int, ...]                      # β

    def __post_init__(self):
        n_vars = len(self.lambda_monomial)
        if n_vars < 1:
            raise MalformedSpec("need at least one variable")
        if len(self.monomials) != n_vars:
            raise MalformedSpec(
                f"expected {n_vars} unit monomials for {n_vars} variables, "
                f"got {len(self.monomials)}")
        cols = [tuple(m) for m in self.monomials] + [tuple(self.lambda_monomial)]
        for col in cols:
            if len(col) != n_vars:
                raise MalformedSpec("exponent vector of wrong length")
            if any(e < 0 for e in col):
                raise MalformedSpec("negative exponent")
        if len(set(cols)) != len(cols):
            raise MalformedSpec("monomials must be pairwise distinct")
        if len(self.mu) != n_vars:
            raise MalformedSpec("mu exponent of wrong length")
        if any(e < 0 for e in self.mu):
            raise MalformedSpec("negative exponent in mu")
        sq = [[Fraction(self.monomials[j][i]) for j in range(n_vars)]
              for i in range(n_vars)]
        if mat_rank(sq) != n_vars:
            raise MalformedSpec("the first n+1 exponent vectors must be linearly independent")

    @property
    def n_vars(self) -> int:
        return len(self.lambda_monomial)

    @property
    def n_monomials(self) -> int:
        return self.n_vars + 1

    def column(self, j: int) -> tuple[int, ...]:
        """Exponent vector of monomial j, 0-based; the last is the λ-monomial."""
        if j < self.n_vars:
            return self.monomials[j]
        return self.lambda_monomial

    def matrix_rows(self) -> list[list[int]]:
        """The exponent matrix M: one row per variable, one column per monomial."""
        cols = list(self.monomials) + [self.lambda_monomial]
        return [[col[i] for col in cols] for i in range(self.n_vars)]

    def mtilde(self) -> list[list[Fraction]]:
        rows = [[Fraction(1)] * self.n_monomials]
        rows += [[Fraction(e) for e in row] for row in self.matrix_rows()]
        return rows

    def with_mu(self, mu) -> "PolySpec":
        return PolySpec(self.monomials, self.lambda_monomial, tuple(mu))

    def to_json(self) -> dict:
        return {
            "nvars": self.n_vars,
            "monomials": [list(m) for m in self.monomials],
            "lambda_monomial": list(self.lambda_monomial),
            "mu": list(self.mu),
        }

    @classmethod
    def from_json(cls, data) -> "PolySpec":
        try:
            n_vars = _json_int(data["nvars"], "nvars")
            monomials = tuple(tuple(_json_int(e, "exponent") for e in m)
                              for m in data["monomials"])
            lam = tuple(_json_int(e, "exponent") for e in data["lambda_monomial"])
            mu = tuple(_json_int(e, "mu entry") for e in data.get("mu", [0] * n_vars))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedSpec(f"bad spec JSON: {exc}") from exc
        spec = cls(monomials, lam, mu)
        if spec.n_vars != n_vars:
            raise MalformedSpec("nvars does not match the exponent vectors")
        return spec

    def poly_str(self) -> str:
        names = _var_names(self.n_vars)
        def mono(col):
            parts = [f"{names[i]}^{e}" if e > 1 else names[i]
                     for i, e in enumerate(col) if e]
            return "·".join(parts) if parts else "1"
        terms = [mono(m) for m in self.monomials]
        terms.append("λ·" + mono(self.lambda_monomial))
        return " + ".join(terms)


def _json_int(x, what: str) -> int:
    """x itself if it is a JSON integer; floats, strings and booleans are
    refused rather than coerced."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise MalformedSpec(f"bad spec JSON: {what} {json.dumps(x)} is not an integer")
    return x


def _var_names(n: int) -> list[str]:
    if n <= 4:
        return ["x", "y", "z", "t"][:n]
    return [f"x{i}" for i in range(n)]


def load_spec_file(path) -> PolySpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedSpec(f"{path}: invalid JSON ({exc})") from exc
    return PolySpec.from_json(data)


@dataclass(frozen=True)
class RelationData:
    """Combinatorial core of the construction for a fixed f."""

    rho: tuple[Fraction, ...]        # α_{n+2} = Σ rho_j·α_j
    r_abs: int                       # least common denominator of rho
    r: int                           # signed exponent of λ in m^Δ = λ^r·m^δ
    p: tuple[int, ...]               # p_j = |r|·rho_j
    H: tuple[int, ...]               # 0-based indices with rho_j = 0
    J_plus: tuple[int, ...]
    J_minus: tuple[int, ...]
    Delta: tuple[int, ...]           # weight d+h side
    delta: tuple[int, ...]           # weight d side
    d: int
    h: int
    eta: tuple[Fraction, ...]        # first column of inverse(M~)
    c: Fraction
    mtilde_inv: tuple[tuple[Fraction, ...], ...]

    def to_json(self) -> dict:
        return {
            "rho": [str(x) for x in self.rho],
            "r_abs": self.r_abs,
            "r": self.r,
            "p": list(self.p),
            "H": list(self.H),
            "J_plus": list(self.J_plus),
            "J_minus": list(self.J_minus),
            "Delta": list(self.Delta),
            "delta": list(self.delta),
            "d": self.d,
            "h": self.h,
            "eta": [str(x) for x in self.eta],
            "c": str(self.c),
            "mtilde_inv": [[str(x) for x in row] for row in self.mtilde_inv],
        }

    @classmethod
    def from_json(cls, data) -> "RelationData":
        return cls(
            rho=tuple(Fraction(x) for x in data["rho"]),
            r_abs=int(data["r_abs"]),
            r=int(data["r"]),
            p=tuple(int(x) for x in data["p"]),
            H=tuple(int(x) for x in data["H"]),
            J_plus=tuple(int(x) for x in data["J_plus"]),
            J_minus=tuple(int(x) for x in data["J_minus"]),
            Delta=tuple(int(x) for x in data["Delta"]),
            delta=tuple(int(x) for x in data["delta"]),
            d=int(data["d"]),
            h=int(data["h"]),
            eta=tuple(Fraction(x) for x in data["eta"]),
            c=Fraction(data["c"]),
            mtilde_inv=tuple(tuple(Fraction(x) for x in row)
                             for row in data["mtilde_inv"]),
        )


def check_condition_C(spec: PolySpec) -> bool:
    """True iff the ones-row-extended exponent matrix has full rank, i.e. f
    is not quasi-homogeneous."""
    return mat_rank(spec.mtilde()) == spec.n_monomials


def analyze(spec: PolySpec) -> RelationData:
    """Solve the weight combinatorics for an accepted spec.

    The result does not depend on mu, so operators for different numerators
    share one cached analysis.
    """
    return _analyze_columns(spec.monomials, spec.lambda_monomial)


def weights(spec: PolySpec) -> dict:
    """The weight step of `analyze`: ρ, |r|, p, H, J±, Δ, δ, d, h and r.
    It computes no matrix inverse and no c, so d+h can be read before them."""
    if not check_condition_C(spec):
        raise QuasiHomogeneous(f"f = {spec.poly_str()} is quasi-homogeneous")
    n = spec.n_vars
    sq = [[Fraction(spec.monomials[j][i]) for j in range(n)] for i in range(n)]
    rho = tuple(mat_solve(sq, [Fraction(e) for e in spec.lambda_monomial]))

    r_abs = math.lcm(*(x.denominator for x in rho))
    p = tuple(int(x * r_abs) for x in rho)
    H = tuple(j for j, x in enumerate(rho) if x == 0)
    J_plus = tuple(j for j, x in enumerate(rho) if x > 0)
    J_minus = tuple(j for j, x in enumerate(rho) if x < 0)
    if not J_plus:
        raise MalformedSpec("degenerate relation: no positive weights")

    side_lambda = r_abs + sum(-p[j] for j in J_minus)
    side_plus = sum(p[j] for j in J_plus)
    # equality would force a quasi-homogeneity, excluded by condition (C)
    if side_lambda == side_plus:
        raise InternalError("both sides of the monomial relation have the same weight")
    d = min(side_lambda, side_plus)
    dh = max(side_lambda, side_plus)
    h = dh - d

    mono = spec.n_monomials        # n+2 monomials, the lambda one last
    lam_idx = mono - 1
    vec_lambda = [0] * mono
    vec_plus = [0] * mono
    vec_lambda[lam_idx] = r_abs
    for j in J_minus:
        vec_lambda[j] = -p[j]
    for j in J_plus:
        vec_plus[j] = p[j]
    if side_lambda > side_plus:
        Delta, delta = tuple(vec_lambda), tuple(vec_plus)
    else:
        Delta, delta = tuple(vec_plus), tuple(vec_lambda)
    r = Delta[lam_idx] - delta[lam_idx]
    return dict(rho=rho, r_abs=r_abs, r=r, p=p, H=H, J_plus=J_plus, J_minus=J_minus,
                Delta=Delta, delta=delta, d=d, h=h)


@lru_cache(maxsize=None)
def _analyze_columns(monomials, lambda_monomial) -> RelationData:
    spec = PolySpec(monomials, lambda_monomial, (0,) * len(lambda_monomial))
    w = weights(spec)
    Delta, delta = w["Delta"], w["delta"]
    inv = mat_inverse(spec.mtilde())
    eta = tuple(row[0] for row in inv)
    c = Fraction(1)
    for j in range(spec.n_monomials):
        if delta[j]:
            c *= eta[j] ** delta[j]
        if Delta[j]:
            c /= eta[j] ** Delta[j]

    rel = RelationData(**w, eta=eta, c=c, mtilde_inv=tuple(tuple(row) for row in inv))
    _check_relation_invariants(spec, rel)
    return rel


def _check_relation_invariants(spec: PolySpec, rel: RelationData) -> None:
    """Raise InternalError unless rel is a consistent monomial relation of spec."""
    n, mono = spec.n_vars, spec.n_monomials
    rows = spec.matrix_rows()
    checks = {
        "ρ does not solve M·ρ = α_λ": all(
            sum(rel.rho[j] * spec.monomials[j][i] for j in range(n)) == spec.lambda_monomial[i]
            for i in range(n)),
        "m^Δ and m^δ differ in x": all(
            sum(row[j] * rel.Delta[j] for j in range(mono))
            == sum(row[j] * rel.delta[j] for j in range(mono)) for row in rows),
        "|Δ| ≠ d+h or |δ| ≠ d": sum(rel.Delta) == rel.d + rel.h and sum(rel.delta) == rel.d,
        "h < 1 or d < 1": rel.h >= 1 and rel.d >= 1,
        "Δ and δ overlap": all(rel.Delta[j] == 0 or rel.delta[j] == 0 for j in range(mono)),
        "Δ or δ touches H": all(rel.Delta[j] == 0 and rel.delta[j] == 0 for j in rel.H),
        "the sign of r disagrees with Δ's λ-exponent": (rel.r > 0) == (rel.Delta[mono - 1] > 0),
        "η vanishes off H or not on H": all((rel.eta[j] == 0) == (j in rel.H) for j in range(n)),
        "c = 0": rel.c != 0,
    }
    for message, ok in checks.items():
        if not ok:
            raise InternalError(f"monomial relation of {spec.poly_str()}: {message}")


def monomial_chain(spec: PolySpec, gamma) -> tuple[HomogChain, Fraction]:
    """Chain of degree-1 factors representing multiplication by m^gamma, and
    the product κ of its a-coefficients.

    gamma is an exponent vector over the n+2 monomials with zero entries on
    H.  Copies are consumed in ascending monomial order; consuming m_j when
    the accumulated exponent is γ' contributes the left factor
    η_j·a + θ_j·b with θ_j = Σ_i w_{j,i}·(Γ_i(γ') + 1), where Γ_i(γ') is the
    x_i-exponent of x^β·x^{M·γ'} and (η_j, w_{j,0..n}) is row j of the
    inverse of M~.
    """
    rel = analyze(spec)
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != spec.n_monomials or any(g < 0 for g in gamma):
        raise MalformedSpec("gamma must be a nonnegative vector over the n+2 monomials")
    for j in rel.H:
        if gamma[j]:
            raise GammaTouchesH(f"gamma has a nonzero entry at index {j} in H")
    exps = [Fraction(e) for e in spec.mu]   # Γ_i of the accumulated monomial
    factors: list[tuple[Fraction, Fraction]] = []
    kappa = Fraction(1)
    inv = rel.mtilde_inv
    for j, g in enumerate(gamma):
        col = spec.column(j)
        for _ in range(g):
            eta = inv[j][0]
            theta = sum(inv[j][1 + i] * (exps[i] + 1) for i in range(spec.n_vars))
            factors.append((eta, theta))
            kappa *= eta
            for i in range(spec.n_vars):
                exps[i] += col[i]
    factors.reverse()   # newest factor multiplies on the left
    return HomogChain(tuple(factors)), kappa


@dataclass(frozen=True, eq=False)
class GMOperator:
    """The operator P = P_dh - c·λ^r·P_d annihilating the period integrals
    of μ·dx/df for the spec's polynomial.  P_dh and P_d are the monic
    products of the two chains, built and checked when first read."""

    spec: PolySpec
    rel: RelationData
    c: Fraction
    r: int
    chain_dh: HomogChain
    chain_d: HomogChain

    @cached_property
    def P_dh(self) -> ABElement:
        """Monic homogeneous of degree d+h."""
        return _monic_product(self.chain_dh, InternalError)

    @cached_property
    def P_d(self) -> ABElement:
        """Monic homogeneous of degree d."""
        return _monic_product(self.chain_d, InternalError)

    @property
    def d(self) -> int:
        return self.rel.d

    @property
    def h(self) -> int:
        return self.rel.h

    def lambda_part(self) -> LaurentLambda:
        """The scalar c·λ^r, the only place λ enters the operator."""
        return LaurentLambda.monomial(self.r, self.c)

    def specialized(self, lam: Fraction) -> ABElement:
        """P_dh - c·lam^r·P_d at a rational λ = lam."""
        return self.P_dh - self.P_d * (self.c * Fraction(lam) ** self.r)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "relation": self.rel.to_json(),
            "P_dh": self.P_dh.to_json(),
            "P_d": self.P_d.to_json(),
            "c": str(self.c),
            "r": self.r,
            "chain_dh": self.chain_dh.to_json(),
            "chain_d": self.chain_d.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "GMOperator":
        op = cls(
            spec=PolySpec.from_json(data["spec"]),
            rel=RelationData.from_json(data["relation"]),
            c=Fraction(data["c"]),
            r=int(data["r"]),
            chain_dh=HomogChain.from_json(data["chain_dh"]),
            chain_d=HomogChain.from_json(data["chain_d"]),
        )
        rel = op.rel
        if rel != analyze(op.spec):
            raise MalformedOperator("the relation is not the spec's")
        if (op.c, op.r, op.chain_dh.degree, op.chain_d.degree) != \
                (rel.c, rel.r, rel.d + rel.h, rel.d):
            raise MalformedOperator("c, r or a chain length disagrees with the relation")
        for chain, key in ((op.chain_dh, "P_dh"), (op.chain_d, "P_d")):
            if _monic_product(chain, MalformedOperator) != ABElement.from_json(data[key]):
                raise MalformedOperator(f"P_{chain.degree} is not the Euler product of its chain")
        for chain, gamma in ((op.chain_dh, rel.Delta), (op.chain_d, rel.delta)):
            if chain != monomial_chain(op.spec, gamma)[0]:
                raise MalformedOperator(f"the chain of P_{chain.degree} is not the spec's")
        return op


def _monic_product(chain: HomogChain, error: type[Exception]) -> ABElement:
    """The chain's product over its a^q coefficient, built from the Euler
    factors.  One kernel product, the leftmost factor times the rest, must give the
    same element: it reads every b-term, so it checks a·b^k = b^k·a + k·b^(k+1).
    The rest is the build that the whole takes one more Euler step on."""
    whole = chain.expand()
    first = ABElement.linear(*chain.factors[0]) if chain.factors else ABElement.one()
    lead = chain.leading
    if lead == 0 or first * chain.expand_tail() != whole:
        raise error(f"P_{chain.degree} is not the Euler product of its chain")
    return whole * (1 / lead)


def build_operator(spec: PolySpec) -> GMOperator:
    """Construct the Gauss-Manin operator for the spec from its two chains.
    The chains' κ must be their a-coefficients, so P_{d+h} ≡ a^{d+h} and
    P_d ≡ a^d mod b; the products themselves are built on first read."""
    rel = analyze(spec)
    chain_dh, kappa_dh = monomial_chain(spec, rel.Delta)
    chain_d, kappa_d = monomial_chain(spec, rel.delta)
    for chain, kappa in ((chain_dh, kappa_dh), (chain_d, kappa_d)):
        if kappa != chain.leading:
            raise InternalError(f"P_{chain.degree} is not the Euler product of its chain")
    c = kappa_d / kappa_dh
    if c != rel.c:
        raise InternalError("chain normalization disagrees with the closed-form c")
    return GMOperator(spec=spec, rel=rel, c=c, r=rel.r, chain_dh=chain_dh, chain_d=chain_d)


# ---------------------------------------------------------------------------
# The cyclically symmetric family in four variables
# ---------------------------------------------------------------------------

def cyclic_symmetric_spec(alpha, mu=(0, 0, 0, 0)) -> PolySpec:
    """Spec for Σ_{j} σ^j(x^alpha) + λ·xyzt with σ the cyclic shift of the
    four variables; needs |alpha| >= 5 and alpha_0+alpha_2 != alpha_1+alpha_3.

    The λ-coefficient is 1, so the engine gives
    c = (|α|-4)^{|α|-4} / |α|^{|α|} (1/3125 for the quintics)."""
    alpha = tuple(int(e) for e in alpha)
    if len(alpha) != 4:
        raise MalformedSpec("alpha must have four entries")
    cols = []
    for j in range(4):
        cols.append(tuple(alpha[(i - j) % 4] for i in range(4)))
    return PolySpec(tuple(cols), (1, 1, 1, 1), tuple(mu))


def symmetric_family_bracket(total_degree: int, lam: Fraction) -> ABElement:
    """The bracketed part of the closed-form annihilator for the symmetric
    family, as printed for it, at the rational λ = lam:
    Π_{p=|α|-2..0}(a - 4(p+1)/|α|·b) - λ^{|α|}·(|α|-4)^{|α|-4}·(a-3b)(a-2b)(a-b).

    The printed form is for Σ_j σ^j(x^α) + |α|·λ·xyzt, whose λ-coefficient
    is |α|.  `cyclic_symmetric_spec` uses coefficient 1, so its engine
    operator P at |α|·λ matches (a - 4b) times this bracket at λ."""
    if total_degree < 5:
        raise MalformedSpec("family needs total degree >= 5")
    w = total_degree
    prod = HomogChain(tuple((Fraction(1), Fraction(-4 * (p + 1), w))
                            for p in range(w - 2, -1, -1))).expand()
    tail = HomogChain(tuple((Fraction(1), Fraction(-rr)) for rr in (3, 2, 1))).expand()
    return prod - tail * ((w - 4) ** (w - 4) * Fraction(lam) ** w)


def symmetric_family_operator(total_degree: int, lam: Fraction) -> ABElement:
    """(a - 4b) times the closed-form bracket at λ = lam, in normal form."""
    return ABElement.linear(Fraction(1), Fraction(-4)) * \
        symmetric_family_bracket(total_degree, lam)
