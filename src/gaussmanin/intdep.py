"""Monic integral-dependence relation of f over Q[x_0·f_0, ..., x_n·f_n].

Writing each monomial of f as a linear combination of f and the scaled
partials u_i = x_i·∂f/∂x_i (rows of the inverse of the ones-row-extended
exponent matrix) and substituting into the multiplicative relation
m^Δ = λ^r·m^δ yields a monic polynomial of degree d+h in f with
coefficients in the u_i that vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import PolySpec, analyze
from .scalars import LaurentLambda, mat_det


@dataclass(frozen=True)
class LinearForms:
    """Row j expresses monomial j as rows[j][0]·f + Σ_i rows[j][1+i]·u_i."""

    rows: tuple[tuple[Fraction, ...], ...]

    def f_coefficient(self, j: int) -> Fraction:
        return self.rows[j][0]

    def to_json(self) -> list:
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "LinearForms":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in data))

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
        assert (forms.f_coefficient(j) == 0) == (j in rel.H)
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


# sparse multivariate polynomials: exponent tuple -> integer coefficient
_IntPoly = dict[tuple[int, ...], int]


def _mul_linear(poly: _IntPoly, form: list[int]) -> _IntPoly:
    """Multiply by a linear form over variables (f, u_0..u_n)."""
    out: _IntPoly = {}
    for exps, c in poly.items():
        for v, fc in enumerate(form):
            if fc == 0:
                continue
            key = list(exps)
            key[v] += 1
            key = tuple(key)
            out[key] = out.get(key, 0) + c * fc
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True, eq=False)
class DependenceRelation:
    """Monic degree-(d+h) polynomial in f over Q[u_0..u_n][λ, λ^-1]."""

    spec: PolySpec
    degree: int
    r: int
    # coefficient of f^k: map u-exponent tuple -> LaurentLambda
    coefficients: tuple[dict[tuple[int, ...], LaurentLambda], ...]

    def coefficient(self, k: int) -> dict[tuple[int, ...], LaurentLambda]:
        return self.coefficients[k] if k <= self.degree else {}

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
    matrix) so only the final normalization touches rationals.
    """
    rel = analyze(spec)
    n = spec.n_vars
    mono = spec.n_monomials
    det = mat_det(spec.mtilde())
    adj_rows = []
    for j in range(mono):
        row = [rel.mtilde_inv[j][k] * det for k in range(mono)]
        assert all(x.denominator == 1 for x in row)
        adj_rows.append([int(x) for x in row])

    def product(vec) -> _IntPoly:
        poly: _IntPoly = {tuple([0] * (n + 1)): 1}
        for j in range(mono):
            for _ in range(vec[j]):
                poly = _mul_linear(poly, adj_rows[j])
        return poly

    big = product(rel.Delta)          # det^(d+h) · Π L^Δ
    small = product(rel.delta)        # det^d · Π L^δ

    dh, d = rel.d + rel.h, rel.d
    kappa_dh = Fraction(1)
    for j in range(mono):
        if rel.Delta[j]:
            kappa_dh *= rel.eta[j] ** rel.Delta[j]

    coeffs: list[dict[tuple[int, ...], LaurentLambda]] = [dict() for _ in range(dh + 1)]
    scale_big = 1 / (det ** dh * kappa_dh)
    for exps, c in big.items():
        k = exps[0]
        coeffs[k][exps[1:]] = LaurentLambda.const(c * scale_big)
    scale_small = -Fraction(1) / (det ** d * kappa_dh)
    lam = LaurentLambda.monomial(rel.r)
    for exps, c in small.items():
        k = exps[0]
        cur = coeffs[k].get(exps[1:], LaurentLambda.const(0))
        cur = cur + lam * (c * scale_small)
        if cur:
            coeffs[k][exps[1:]] = cur
        elif exps[1:] in coeffs[k]:
            del coeffs[k][exps[1:]]

    relation = DependenceRelation(spec=spec, degree=dh, r=rel.r,
                                  coefficients=tuple(coeffs))
    assert relation.is_monic()
    return relation


# ---------------------------------------------------------------------------
# Exact verification by full multivariate expansion
# ---------------------------------------------------------------------------

# x-space polynomials: (lambda exponent, x exponent tuple) -> Fraction
_XPoly = dict[tuple[int, tuple[int, ...]], Fraction]


def _x_mul(p: _XPoly, q: _XPoly) -> _XPoly:
    out: _XPoly = {}
    for (l1, e1), c1 in p.items():
        for (l2, e2), c2 in q.items():
            key = (l1 + l2, tuple(a + b for a, b in zip(e1, e2)))
            v = out.get(key)
            prod = c1 * c2
            out[key] = prod if v is None else v + prod
    return {k: v for k, v in out.items() if v}


def _x_add_scaled(p: _XPoly, q: _XPoly, c: LaurentLambda) -> _XPoly:
    out = dict(p)
    for le, v in c.coeffs.items():
        for (l2, e2), c2 in q.items():
            key = (le + l2, e2)
            cur = out.get(key, Fraction(0)) + v * c2
            if cur:
                out[key] = cur
            elif key in out:
                del out[key]
    return out


def _monomial_polys(spec: PolySpec) -> tuple[_XPoly, list[_XPoly]]:
    """f(x) and the scaled partials u_i(x), with λ tracked exactly."""
    n = spec.n_vars
    f: _XPoly = {}
    for j in range(n):
        f[(0, spec.monomials[j])] = Fraction(1)
    f[(1, spec.lambda_monomial)] = f.get((1, spec.lambda_monomial), Fraction(0)) + 1
    us = []
    for i in range(n):
        u: _XPoly = {}
        for j in range(n):
            e = spec.monomials[j][i]
            if e:
                u[(0, spec.monomials[j])] = u.get((0, spec.monomials[j]), Fraction(0)) + e
        e = spec.lambda_monomial[i]
        if e:
            u[(1, spec.lambda_monomial)] = u.get((1, spec.lambda_monomial), Fraction(0)) + e
        us.append({k: v for k, v in u.items() if v})
    return f, us


def verify_identity(relation: DependenceRelation) -> bool:
    """Substitute the actual polynomials f and u_i = x_i·∂f/∂x_i into the
    expanded relation and check that the result is exactly zero."""
    f, us = _monomial_polys(relation.spec)
    n = relation.spec.n_vars

    max_pow = [0] * n
    for coeff in relation.coefficients:
        for e in coeff:
            for i in range(n):
                max_pow[i] = max(max_pow[i], e[i])
    u_powers: list[list[_XPoly]] = []
    one: _XPoly = {(0, tuple([0] * n)): Fraction(1)}
    for i in range(n):
        tab = [one]
        for _ in range(max_pow[i]):
            tab.append(_x_mul(tab[-1], us[i]))
        u_powers.append(tab)

    def coeff_to_x(coeff: dict[tuple[int, ...], LaurentLambda]) -> _XPoly:
        out: _XPoly = {}
        for e, c in coeff.items():
            mono = one
            for i in range(n):
                if e[i]:
                    mono = _x_mul(mono, u_powers[i][e[i]])
            out = _x_add_scaled(out, mono, c)
        return out

    acc: _XPoly = {}
    for k in range(relation.degree, -1, -1):
        acc = _x_mul(acc, f) if acc else acc
        ck = coeff_to_x(relation.coefficients[k])
        acc = _x_add_scaled(acc, ck, LaurentLambda.const(1)) if acc else ck
    return not acc
