"""Monic integral-dependence relation of f over Q[x_0·f_0, ..., x_n·f_n].

Writing each monomial of f as a linear combination of f and the scaled
partials u_i = x_i·∂f/∂x_i (rows of the inverse of the ones-row-extended
exponent matrix) and substituting into the multiplicative relation
m^Δ = λ^r·m^δ yields a monic polynomial of degree d+h in f with
coefficients in the u_i that vanishes identically.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .engine import PolySpec, analyze
from .errors import InternalError, MalformedRelation
from .jsonout import json_text
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


# A relation's key for f^k·u^e is k + Σ_i e_i·base^(n-i): f is the lowest
# digit and u_0 the highest, so within one power of f the order of the keys
# is the order of the u-exponent tuples.

# The indent-2 JSON text of one term and of one power of f's block, at
# their depth in the relation's object.
_C_ITEM = '[\n              %d,\n              "%s"\n            ]'
_TERM = ('{\n          "u": [\n            %s\n          ],'
         '\n          "c": [\n            %s\n          ]\n        }')
_BLOCK = '{\n      "f_power": %d,\n      "terms": [\n        %s\n      ]\n    }'
_EMPTY_BLOCK = '{\n      "f_power": %d,\n      "terms": []\n    }'


class _FPower(Mapping):
    """The coefficient of one power of f, read-only: u-exponent tuple ->
    LaurentLambda, in the order of the tuples.  Values are built on access;
    len and iteration build none."""

    __slots__ = ("_relation", "_k", "packed")

    def __init__(self, relation: "DependenceRelation", k: int, keys: list[int]):
        self._relation, self._k, self.packed = relation, k, keys

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self):
        base, places = self._relation.base, self._relation._u_places
        for key in self.packed:
            yield tuple([key // p % base for p in places])

    def __getitem__(self, e) -> LaurentLambda:
        rel = self._relation
        if len(e) != len(rel._u_places) or not all(0 <= x < rel.base for x in e):
            raise KeyError(e)
        key = self._k + sum(p * x for p, x in zip(rel._u_places, e))
        coeffs = {le: nums[key] * scale
                  for (nums, scale), le in zip(rel.parts, (0, rel.r)) if key in nums}
        if not coeffs:
            raise KeyError(e)
        return LaurentLambda(coeffs)


@dataclass(frozen=True, eq=False)
class DependenceRelation:
    """Monic degree-(d+h) polynomial in f over Q[u_0..u_n][λ, λ^-1].

    parts = ((num_0, scale_0), (num_r, scale_r)): the coefficient of f^k·u^e
    is num_0[key]·scale_0 + num_r[key]·scale_r·λ^r, with integer maps over
    the packed keys above, absent keys reading 0.  `dependence_relation`
    stores det^(d+h)·Π L^Δ and det^d·Π L^δ there; the L_j are linear and
    homogeneous in (f, u), so the two maps are homogeneous of degrees d+h
    and d and their keys never meet.
    """

    spec: PolySpec
    degree: int
    r: int
    base: int
    parts: tuple[tuple[_Poly, Fraction], tuple[_Poly, Fraction]]

    @classmethod
    def from_coefficients(cls, spec: PolySpec, degree: int, r: int,
                          coefficients) -> "DependenceRelation":
        """The relation whose coefficient of f^k·u^e is coefficients[k][e], a
        LaurentLambda in λ^0 and λ^r only."""
        n = spec.n_vars
        base = max([degree, *(x for coeff in coefficients for e in coeff for x in e)]) + 1
        values: tuple[dict, dict] = ({}, {})
        for k, coeff in enumerate(coefficients):
            for e, c in coeff.items():
                if k > degree or len(e) != n or min(e, default=0) < 0 or c.coeffs.keys() - {0, r}:
                    raise ValueError(f"a term {c}·f^{k}·u^{e} in a relation of degree "
                                     f"{degree} in {n} variables with r = {r}")
                key = k + sum(x * base ** (n - i) for i, x in enumerate(e))
                for le, v in c.coeffs.items():
                    values[1 if le else 0][key] = v
        dens = [math.lcm(*(v.denominator for v in vals.values())) for vals in values]
        parts = tuple(({key: int(v * den) for key, v in vals.items()}, Fraction(1, den))
                      for vals, den in zip(values, dens))
        return cls(spec=spec, degree=degree, r=r, base=base, parts=parts)

    @cached_property
    def _u_places(self) -> list[int]:
        """The place values of u_0, ..., u_{n-1} in a key."""
        return [self.base ** (self.spec.n_vars - i) for i in range(self.spec.n_vars)]

    @cached_property
    def coefficients(self) -> tuple[_FPower, ...]:
        """The coefficient of each power of f, as a read-only view on its
        sorted keys."""
        keys: list[list[int]] = [[] for _ in range(self.degree + 1)]
        for key in self.parts[0][0].keys() | self.parts[1][0].keys():
            keys[key % self.base].append(key)
        return tuple(_FPower(self, k, sorted(ks)) for k, ks in enumerate(keys))

    def is_monic(self) -> bool:
        (num0, s0), (num_r, _) = self.parts
        top = self.degree   # the key of f^degree·u^0
        return (self.coefficients[top].packed == [top] and top not in num_r
                and num0.get(top, 0) * s0 == 1)

    @cached_property
    def _scales(self) -> list[tuple[_Poly, int, int, int]]:
        """(nums, p, q, λ-exponent) for each part with scale p/q, by λ-exponent."""
        out = [(nums, scale.numerator, scale.denominator, le)
               for (nums, scale), le in zip(self.parts, (0, self.r))]
        return out[::-1] if self.r < 0 else out

    def _c_items(self, key: int) -> list[tuple[int, str]]:
        """The coefficient of a key as (λ-exponent, "p/q") pairs by λ-exponent."""
        out = []
        for nums, p, q, le in self._scales:
            a = nums.get(key)
            if a is not None:
                g = math.gcd(a, q)   # p/q is reduced, so gcd(a·p, q) = gcd(a, q)
                out.append((le, str(a // g * p) if g == q else f"{a // g * p}/{q // g}"))
        return out

    def _head_json(self) -> dict:
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
        }

    def to_json(self) -> dict:
        base, places = self.base, self._u_places
        return {
            **self._head_json(),
            "coefficients": [
                {"f_power": k,
                 "terms": [{"u": [key // p % base for p in places],
                            "c": [list(v) for v in self._c_items(key)]}
                           for key in view.packed]}
                for k, view in enumerate(self.coefficients)
            ],
        }

    def write_json(self, write, verified: bool | None = None) -> None:
        """Write json.dumps(to_json() plus a last "verified" key unless it is
        None, indent=2) + "\n" to write, without building to_json's tree:
        the head through `json_text`, then one piece per power of f.  The
        "c" strings hold only digits, "-" and "/", so they need no escaping."""
        head = json_text(self._head_json(), "\n")
        write(head[:-len("\n}")] + ',\n  "coefficients": [')
        base, places, c_items = self.base, self._u_places, self._c_items
        sep = "\n    "
        for k, view in enumerate(self.coefficients):
            terms = [_TERM % (",\n            ".join([str(key // p % base) for p in places]),
                              ",\n            ".join([_C_ITEM % v for v in c_items(key)]))
                     for key in view.packed]
            write(sep)
            write(_BLOCK % (k, ",\n        ".join(terms)) if terms else _EMPTY_BLOCK % k)
            sep = ",\n    "
        tail = "" if verified is None else ',\n  "verified": ' + json_text(verified, "")
        write("\n  ]" + tail + "\n}\n")

    @classmethod
    def from_json(cls, data, spec: PolySpec) -> "DependenceRelation":
        """The relation in data, refused unless it is the spec's; the last check
        is `verify_identity`'s certificate, which with the monic check pins
        both products and both scales to the spec's expansion."""
        try:
            coeffs = [{tuple(t["u"]): LaurentLambda.from_json(t["c"]) for t in entry["terms"]}
                      for entry in data["coefficients"]]
            relation = cls.from_coefficients(spec, int(data["degree"]), int(data["r"]), coeffs)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise MalformedRelation(f"bad relation JSON: {exc!r}") from exc
        rel = analyze(spec)
        if (relation.degree, relation.r) != (rel.d + rel.h, rel.r):
            raise MalformedRelation(f"degree {relation.degree} or r = {relation.r} disagrees "
                                    f"with the spec's d+h = {rel.d + rel.h} and r = {rel.r}")
        if not relation.is_monic():
            raise MalformedRelation(f"the relation is not monic of degree {relation.degree} in f")
        if not verify_identity(relation):
            raise MalformedRelation("the relation is not the spec's expansion")
        return relation

    def factored_str(self) -> str:
        return factored_relation_str(self.spec)

    def expanded_str(self) -> str:
        lines = []
        for k in range(self.degree, -1, -1):
            coeff = self.coefficients[k]
            if not coeff:
                continue
            terms = []
            for e, c in coeff.items():
                mono = "·".join(f"u{i}^{p}" if p > 1 else f"u{i}"
                                for i, p in enumerate(e) if p)
                cs = str(c) if c.is_constant() else f"({c})"
                terms.append(f"{cs}·{mono}" if mono else cs)
            fs = "" if k == 0 else (" · f" if k == 1 else f" · f^{k}")
            lines.append(f"({' + '.join(terms)}){fs}")
        return "\n+ ".join(lines)


def _power_product(forms: list[_Poly], vec, base: int) -> _Poly:
    """Π_j L_j^vec_j for integer linear forms L_j = a_j·f + ℓ_j(u), block by
    block in the power of f.

    With S = {j : vec_j > 0}, m = |S| and q = Σ vec_j, Q = Π_S L_j and
    R = Σ_S vec_j·a_j·Π_{i≠j} L_i, the product P = Σ_k f^k·P_k(u) solves
    Q·∂_f P = R·P.  Splitting Q = Σ_i f^i·Q_i and R = Σ_i f^i·R_i, the
    coefficient of f^(k+m-1) gives, for k < q,
    Q_m·(k - q)·P_k = Σ_{s=1..m} C_s(k)·P_{k+s} with
    C_s(k) = R_{m-1-s} - (k+s)·Q_{m-s} (R_{-1} = 0), homogeneous of u-degree
    s: one multiplier per block above, from P_q = Π a_j^vec_j down.  Each
    division must be exact.  Blocks are kept with the f digit cleared.
    """
    S = [j for j, a in enumerate(vec) if a]
    m, q = len(S), sum(vec)
    Q, R = {0: 1}, {}
    for j in S:
        a = forms[j].get(1, 0)
        if not a:
            raise InternalError(f"the form of monomial {j} has no f-term but a power {vec[j]}")
        R = _mul(R, forms[j], {k: c * vec[j] * a for k, c in Q.items()})
        Q = _mul(Q, forms[j])
    Qs: list[_Poly] = [{} for _ in range(m + 1)]
    Rs: list[_Poly] = [{} for _ in range(m)]
    for poly, split in ((Q, Qs), (R, Rs)):
        for key, c in poly.items():
            split[key % base][key - key % base] = c
    lead = Qs[m][0]
    blocks: list[_Poly] = [{} for _ in range(q)] + [{0: math.prod(
        forms[j][1] ** vec[j] for j in S)}]
    for k in range(q - 1, -1, -1):
        acc: _Poly = {}
        for s in range(1, min(m, q - k) + 1):
            mult = {u: -(k + s) * c for u, c in Qs[m - s].items()}
            for u, c in (Rs[m - 1 - s] if s < m else {}).items():
                mult[u] = mult.get(u, 0) + c
            acc = _mul(blocks[k + s], mult, acc)
        div, block = lead * (k - q), {}
        for u, c in acc.items():
            v, rem = divmod(c, div)
            if rem:
                raise InternalError(f"the f^{k} block of a product does not divide by {div}")
            block[u] = v
        blocks[k] = block
    return {u + k: c for k, block in enumerate(blocks) for u, c in block.items()}


def dependence_relation(spec: PolySpec) -> DependenceRelation:
    """Expand the relation as a monic polynomial in f.

    Expansion runs over the scaled integer rows L_j (determinant times the
    inverse matrix).  Each product Π L_j^A_j, A = Δ or δ, comes from
    `_power_product` by the recurrence in the power of f that
    Q·∂_f P = R·P gives, and is stored as it comes out, with one rational
    scale.  Keys pack the exponents of (f, u_0..u_n) in base d+h+1, above
    any exponent.  `verify_identity` checks the result with its own Q and R.
    """
    rel = analyze(spec)
    n = spec.n_vars
    mono = spec.n_monomials
    dh, d = rel.d + rel.h, rel.d
    base = dh + 1
    places = [1] + [base ** (n - i) for i in range(n)]   # f, u_0, ..., u_{n-1}
    det = mat_det(spec.mtilde())
    forms = []
    for j in range(mono):
        row = [rel.mtilde_inv[j][v] * det for v in range(mono)]
        if any(x.denominator != 1 for x in row):
            raise InternalError(f"det·M̃⁻¹ has a non-integer entry in row {j}")
        forms.append({places[v]: int(x) for v, x in enumerate(row) if x})

    kappa_dh = Fraction(1)
    for j in range(mono):
        if rel.Delta[j]:
            kappa_dh *= rel.eta[j] ** rel.Delta[j]

    relation = DependenceRelation(
        spec=spec, degree=dh, r=rel.r, base=base,
        parts=((_power_product(forms, rel.Delta, base), 1 / (det ** dh * kappa_dh)),  # det^(d+h)·Π L^Δ
               (_power_product(forms, rel.delta, base), -1 / (det ** d * kappa_dh))))  # det^d·Π L^δ
    if not relation.is_monic():
        raise InternalError(f"the expanded relation is not monic of degree {dh} in f")
    return relation


# ---------------------------------------------------------------------------
# Exact verification by a certificate
# ---------------------------------------------------------------------------

def verify_identity(relation: DependenceRelation) -> bool:
    """Whether the relation vanishes when f and u_i = x_i·∂f/∂x_i are
    substituted, by a certificate that costs about as much as the relation.

    With T_j the terms of f (λ in the last) and F_j the integer row
    det·M̃⁻¹[j], rows·M̃ = det·I gives F_j(f, u) = det·T_j, and
    Σ (Δ_j − δ_j)·(α_j, [j is λ]) = (0, ..., 0, r) makes both parts
    substitute to one monomial.  Each product p must be k·Π F_j^A_j, A = Δ
    or δ: with S = {j : A_j > 0}, Q = Π_S F_j, R = Σ_S A_j·a_j·Π_{i≠j} F_i
    and a_j the f-entry of F_j, a p with Q·∂_f p = R·p is c(u)·Π F_j^A_j, and
    c is the constant k = p[f^q]/Π a_j^A_j when p has f-degree q = |A| and
    its f^q block is one constant.  Last, k_0·s_0·det^|Δ| + k_r·s_r·det^|δ|
    must be 0.
    """
    spec, base = relation.spec, relation.base
    rel, n = analyze(spec), spec.n_vars
    mtilde = spec.mtilde()
    det = mat_det(mtilde)
    rows = [[x * det for x in row] for row in rel.mtilde_inv]
    if any(sum(a * b for a, b in zip(row, col)) != det * (t == j)
           for j, row in enumerate(rows) for t, col in enumerate(zip(*mtilde))):
        return False
    rows = [[int(x) for x in row] for row in rows]   # the adjugate of M̃
    cols = [(*spec.column(j), j == n) for j in range(n + 1)]
    if [sum((a - b) * col[i] for a, b, col in zip(rel.Delta, rel.delta, cols))
            for i in range(n + 1)] != [0] * n + [relation.r]:
        return False
    total = 0
    for (p, scale), vec in zip(relation.parts, (rel.Delta, rel.delta)):
        S, q = [j for j, a in enumerate(vec) if a], sum(vec)
        big = base + len(S)   # Q·∂_f p and R·p reach the digit base + |S| − 1
        old, new = ([b ** i for i in range(n, -1, -1)] for b in (base, big))
        p = {sum([key // o % base * w for o, w in zip(old, new)]): c for key, c in p.items()}
        if [key for key in p if key % big >= q] != [q]:
            return False
        Q, R, lead = {0: 1}, {}, 1
        for j in S:
            form = {w: x for w, x in zip([1, *new[:-1]], rows[j]) if x}
            R = _mul(R, form, {k: c * vec[j] * rows[j][0] for k, c in Q.items()})
            Q, lead = _mul(Q, form), lead * rows[j][0] ** vec[j]
        dp = {key - 1: c * (key % big) for key, c in p.items() if key % big}
        if _mul(p, {k: -c for k, c in R.items()}, _mul(dp, Q)):
            return False
        total += Fraction(p[q], lead) * scale * det ** q
    return total == 0
