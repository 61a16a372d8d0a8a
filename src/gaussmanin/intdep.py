"""Monic integral-dependence relation of f over Q[x_0·f_0, ..., x_n·f_n].

Writing each monomial of f as a linear combination of f and the scaled
partials u_i = x_i·∂f/∂x_i (rows of the inverse of the ones-row-extended
exponent matrix) and substituting into the multiplicative relation
m^Δ = λ^r·m^δ yields a monic polynomial of degree d+h in f with
coefficients in the u_i that vanishes identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .engine import PolySpec, analyze
from .errors import InternalError
from .scalars import LaurentLambda, mat_det


@dataclass(frozen=True)
class LinearForms:
    """Row j expresses monomial j as rows[j][0]·f + Σ_i rows[j][1+i]·u_i."""

    rows: tuple[tuple[Fraction, ...], ...]

    def f_coefficient(self, j: int) -> Fraction:
        return self.rows[j][0]

    def to_json(self) -> list:
        return [[str(x) for x in row] for row in self.rows]

    def format_row(self, j: int, n_vars: int) -> str:
        parts = []
        names = ["f"] + [f"u{i}" for i in range(n_vars)]
        for name, c in zip(names, self.rows[j]):
            if c == 0:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}·{name}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def linear_forms(spec: PolySpec) -> LinearForms:
    """Exact rows of the inverse of the extended exponent matrix."""
    rel = analyze(spec)
    forms = LinearForms(rel.mtilde_inv)
    for j in range(spec.n_monomials):
        if (forms.f_coefficient(j) == 0) != (j in rel.H):
            raise InternalError(f"the f-coefficient of monomial {j} is zero off H or nonzero on H")
    return forms


def factored_relation_str(spec: PolySpec) -> str:
    """The relation Π L_j^Δ_j - λ^r·Π L_j^δ_j = 0 in the linear forms of
    `linear_forms`; needs no expansion."""
    rel = analyze(spec)
    forms = linear_forms(spec)
    n = spec.n_vars

    def side(vec):
        return "·".join(f"({forms.format_row(j, n)})^{vec[j]}"
                        for j in range(len(vec)) if vec[j])

    lam = "λ" if rel.r == 1 else f"λ^{rel.r}"
    return f"{side(rel.Delta)} - {lam}·{side(rel.delta)} = 0"


# Sparse polynomials with Kronecker-packed keys: the monomial Π v_i^e_i is
# the integer Σ e_i·base^i, so a product of monomials is a sum of keys.
# Every digit stays below base, except the top one, which may be negative.
_Poly = dict[int, int]


def _mul(p: _Poly, q: _Poly, acc: _Poly | None = None) -> _Poly:
    """acc + p·q, with zero coefficients dropped."""
    out = dict(acc) if acc else {}
    get = out.get
    for k2, c2 in q.items():
        for k1, c1 in p.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _pack(exps, base: int) -> int:
    return sum(e * base ** i for i, e in enumerate(exps))


def _unpack(key: int, base: int, length: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        key, e = divmod(key, base)
        digits.append(e)
    return tuple(digits)


@dataclass(frozen=True, eq=False)
class DependenceRelation:
    """Monic degree-(d+h) polynomial in f over Q[u_0..u_n][λ, λ^-1]."""

    spec: PolySpec
    degree: int
    r: int
    # coefficient of f^k: map u-exponent tuple -> LaurentLambda
    coefficients: tuple[dict[tuple[int, ...], LaurentLambda], ...]

    def is_monic(self) -> bool:
        top = self.coefficients[self.degree]
        zero = tuple([0] * self.spec.n_vars)
        return set(top) == {zero} and top[zero] == 1

    def to_json(self) -> dict:
        rel = analyze(self.spec)
        rows = linear_forms(self.spec).to_json()
        return {
            "degree": self.degree,
            "r": self.r,
            "factored": {
                "Delta": [[rows[j], rel.Delta[j]]
                          for j in range(len(rel.Delta)) if rel.Delta[j]],
                "delta": [[rows[j], rel.delta[j]]
                          for j in range(len(rel.delta)) if rel.delta[j]],
            },
            "coefficients": [
                {"f_power": k,
                 "terms": [{"u": list(e), "c": c.to_json()}
                           for e, c in sorted(coeff.items())]}
                for k, coeff in enumerate(self.coefficients)
            ],
        }

    @classmethod
    def from_json(cls, data, spec: PolySpec) -> "DependenceRelation":
        coeffs = []
        for entry in data["coefficients"]:
            coeffs.append({tuple(t["u"]): LaurentLambda.from_json(t["c"])
                           for t in entry["terms"]})
        return cls(spec=spec, degree=int(data["degree"]), r=int(data["r"]),
                   coefficients=tuple(coeffs))

    def factored_str(self) -> str:
        return factored_relation_str(self.spec)

    def expanded_str(self) -> str:
        lines = []
        for k in range(self.degree, -1, -1):
            coeff = self.coefficients[k]
            if not coeff:
                continue
            terms = []
            for e, c in sorted(coeff.items()):
                mono = "·".join(f"u{i}^{p}" if p > 1 else f"u{i}"
                                for i, p in enumerate(e) if p)
                cs = str(c) if c.is_constant() else f"({c})"
                terms.append(f"{cs}·{mono}" if mono else cs)
            fs = "" if k == 0 else (" · f" if k == 1 else f" · f^{k}")
            lines.append(f"({' + '.join(terms)}){fs}")
        return "\n+ ".join(lines)


def dependence_relation(spec: PolySpec) -> DependenceRelation:
    """Expand the relation as a monic polynomial in f.

    Expansion runs over scaled integer rows (determinant times the inverse
    matrix) so only the final normalization touches rationals.  Keys pack
    the exponents of (f, u_0..u_n) in base d+h+1, above any exponent.
    """
    rel = analyze(spec)
    n = spec.n_vars
    mono = spec.n_monomials
    dh, d = rel.d + rel.h, rel.d
    base = dh + 1
    det = mat_det(spec.mtilde())
    forms = []
    for j in range(mono):
        row = [rel.mtilde_inv[j][v] * det for v in range(mono)]
        if any(x.denominator != 1 for x in row):
            raise InternalError(f"det·M̃⁻¹ has a non-integer entry in row {j}")
        forms.append({base ** v: int(x) for v, x in enumerate(row) if x})

    def product(vec) -> _Poly:
        poly: _Poly = {0: 1}
        for j in range(mono):
            for _ in range(vec[j]):
                poly = _mul(poly, forms[j])
        return poly

    kappa_dh = Fraction(1)
    for j in range(mono):
        if rel.Delta[j]:
            kappa_dh *= rel.eta[j] ** rel.Delta[j]

    coeffs: list[dict[tuple[int, ...], LaurentLambda]] = [dict() for _ in range(dh + 1)]
    scale_big = 1 / (det ** dh * kappa_dh)
    for key, c in product(rel.Delta).items():        # det^(d+h) · Π L^Δ
        exps = _unpack(key, base, n + 1)
        coeffs[exps[0]][exps[1:]] = LaurentLambda.const(c * scale_big)
    scale_small = -Fraction(1) / (det ** d * kappa_dh)
    lam = LaurentLambda.monomial(rel.r)
    for key, c in product(rel.delta).items():        # det^d · Π L^δ
        exps = _unpack(key, base, n + 1)
        k, e = exps[0], exps[1:]
        cur = coeffs[k].get(e, LaurentLambda.const(0)) + lam * (c * scale_small)
        if cur:
            coeffs[k][e] = cur
        elif e in coeffs[k]:
            del coeffs[k][e]

    relation = DependenceRelation(spec=spec, degree=dh, r=rel.r,
                                  coefficients=tuple(coeffs))
    if not relation.is_monic():
        raise InternalError(f"the expanded relation is not monic of degree {dh} in f")
    return relation


# ---------------------------------------------------------------------------
# Exact verification by full multivariate expansion
# ---------------------------------------------------------------------------

def _horner(terms: dict[tuple[int, ...], _Poly], values: list[_Poly]) -> _Poly:
    """Σ c·Π values[i]^e[i] over the items (e, c) of terms, by Horner's rule
    in the first variable and recursively in the rest."""
    if not values:
        return terms[()]
    groups: dict[int, dict] = {}
    for e, c in terms.items():
        groups.setdefault(e[0], {})[e[1:]] = c
    acc: _Poly = {}
    for k in range(max(groups), -1, -1):
        inner = _horner(groups[k], values[1:]) if k in groups else None
        acc = _mul(acc, values[0], inner)
    return acc


def verify_identity(relation: DependenceRelation) -> bool:
    """Substitute the actual polynomials f and u_i = x_i·∂f/∂x_i into the
    expanded relation and check that the result is exactly zero.

    Keys pack the x-exponents below the λ-exponent, in a base above the
    largest x-exponent any term can reach.  Coefficients are cleared to
    integers by their common denominator, which keeps the zero test exact.
    """
    spec = relation.spec
    n = spec.n_vars
    cols = list(spec.monomials) + [spec.lambda_monomial]
    terms = {(k, *e): c for k, coeff in enumerate(relation.coefficients)
             for e, c in coeff.items()}
    top = max(sum(e) for e in terms)
    base = top * max(max(col) for col in cols) + 1
    lam_key = base ** n
    keys = [_pack(col, base) for col in cols]
    keys[-1] += lam_key
    f = dict.fromkeys(keys, 1)
    us = [{key: col[i] for key, col in zip(keys, cols) if col[i]} for i in range(n)]

    den = math.lcm(*(v.denominator for c in terms.values() for v in c.coeffs.values()))
    packed = {e: {le * lam_key: int(v * den) for le, v in c.coeffs.items()}
              for e, c in terms.items()}
    return not _horner(packed, [f] + us)
