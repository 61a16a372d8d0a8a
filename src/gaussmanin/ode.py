"""Classical ODE view of algebra elements: a acts as multiplication by s and
b as integration from 0, so b^{-1} is d/ds and θ = s·d/ds satisfies
b^{-i}·a^i = (θ+1)(θ+2)···(θ+i).

A homogeneous element of degree q becomes the Euler polynomial E with
b^{-q}·p = E(θ); a full operator becomes Σ p_k(s)·D^k with D·s = s·D + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .abalgebra import ABElement, require_homogeneous
from .errors import InternalError, NotMonic
from .scalars import LaurentLambda, UniPoly, as_laurent

if TYPE_CHECKING:   # engine imports euler_form for its certificate
    from .engine import GMOperator

#: Euler polynomials are UniPoly values in θ over LaurentLambda, the
#: coefficient type of the ODE they feed.
EulerPoly = UniPoly


def _falling_basis(max_len: int) -> list[UniPoly]:
    """F_i(θ) = (θ+1)···(θ+i) for i = 0..max_len."""
    out = [UniPoly.const(1)]   # integer coefficients: cheaper than Fraction
    for i in range(1, max_len + 1):
        out.append(out[-1] * UniPoly((i, 1)))
    return out


def euler_form(p: ABElement) -> EulerPoly:
    """The polynomial E(θ) with b^{-q}·p = E(s·d/ds), q the degree of p."""
    q = require_homogeneous(p)
    num, den = p.numerators()
    col = {i: n for (_, i), n in num.items()}
    out = UniPoly()   # Horner: E = c_0 + (θ+1)·(c_1 + (θ+2)·(c_2 + ···)) over Z
    for i in range(q, -1, -1):
        out = out * UniPoly((i + 1, 1)) + UniPoly.const(col.get(i, 0))
    return UniPoly(as_laurent(Fraction(c, den)) for c in out.coeffs)


def from_euler(e: EulerPoly, q: int) -> ABElement:
    """The homogeneous degree-q element whose Euler polynomial is e."""
    if e.degree > q:
        raise ValueError("Euler polynomial degree exceeds the element degree")
    basis = _falling_basis(q)
    residual = e.to_rational()
    terms = {}
    for k in range(q + 1):
        i = q - k
        c = residual[i]
        if c:
            terms[(k, i)] = c
            residual = residual - basis[i].scale(c)
    if not residual.is_zero():
        raise InternalError(f"the Euler polynomial leaves a residual {residual}")
    return ABElement(terms)


def bernstein_polynomial(q_elem: ABElement) -> UniPoly:
    """The unique monic B with (-b)^d·B(-b^{-1}·a) = q for a homogeneous
    element q monic in a of degree d.

    With E the Euler polynomial of q this is B(x) = (-1)^d·E(-x-1).
    """
    d = require_homogeneous(q_elem)
    if not q_elem.is_monic_in_a() or q_elem.a_degree != d:
        raise NotMonic("element must be monic in a of full degree")
    e = euler_form(q_elem)
    flip = UniPoly((Fraction(-1), Fraction(-1)))  # -x - 1
    b = e.compose(flip)
    if d % 2:
        b = -b
    if b.degree != d or b[d] != 1:
        raise InternalError(f"the Bernstein polynomial is not monic of degree {d}")
    return b


def element_from_bernstein(b: UniPoly, d: int) -> ABElement:
    """Inverse of bernstein_polynomial: the monic homogeneous element of
    degree d with (-b)^d·B(-b^{-1}a) equal to it."""
    flip = UniPoly((Fraction(-1), Fraction(-1)))
    e = b.compose(flip)
    if d % 2:
        e = -e
    return from_euler(e, d)


# ---------------------------------------------------------------------------
# Differential operators Σ p_k(s)·D^k
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiffOp:
    """Normal form Σ p_k(s)·D^k with D = d/ds and D·s = s·D + 1 applied
    exhaustively; p_k are polynomials in s over LaurentLambda or Q."""

    parts: tuple[tuple[int, UniPoly], ...]   # (derivative order, coefficient)

    @classmethod
    def build(cls, mapping: dict[int, UniPoly]) -> "DiffOp":
        parts = tuple(sorted((k, p) for k, p in mapping.items() if not p.is_zero()))
        return cls(parts)

    @property
    def order(self) -> int:
        return self.parts[-1][0] if self.parts else -1

    def coefficient(self, k: int) -> UniPoly:
        for kk, p in self.parts:
            if kk == k:
                return p
        return UniPoly()

    def __add__(self, other: "DiffOp") -> "DiffOp":
        out = {k: p for k, p in self.parts}
        for k, p in other.parts:
            out[k] = out.get(k, UniPoly()) + p
        return DiffOp.build(out)

    def __neg__(self) -> "DiffOp":
        return DiffOp(tuple((k, -p) for k, p in self.parts))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, LaurentLambda)):
            return NotImplemented
        c = as_laurent(other)
        return DiffOp.build({k: p.map_coeffs(lambda x: x * c) for k, p in self.parts})

    def times_theta(self) -> "DiffOp":
        """self·θ by (Σ p_k·D^k)·s·D = Σ (s·p_k·D^{k+1} + k·p_k·D^k)."""
        s = UniPoly((Fraction(0), Fraction(1)))
        one = UniPoly.const(Fraction(1))
        out: dict[int, UniPoly] = {}
        for k, p in self.parts:
            out[k + 1] = p * s
            if k:   # p·1 turns zero coefficients into int 0, which JSON writes as "0"
                out[k] = out.get(k, UniPoly()) + p * one * k
        return DiffOp.build(out)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.parts == other.parts

    def to_json(self) -> list:
        return [{"order": k, "coeff": p.to_json()} for k, p in self.parts]

    @classmethod
    def from_json(cls, data) -> "DiffOp":
        return cls.build({int(t["order"]): UniPoly.from_json(t["coeff"]) for t in data})

    def __str__(self):
        if not self.parts:
            return "0"
        chunks = []
        for k, p in sorted(self.parts, reverse=True):
            ps = p.format("s")
            body = f"({ps})" if (" " in ps or "·" in ps) else ps
            if k == 0:
                chunks.append(body)
            else:
                dd = "D" if k == 1 else f"D^{k}"
                chunks.append(f"{body}·{dd}")
        return " + ".join(chunks)


def euler_to_diffop(e: EulerPoly) -> DiffOp:
    """Substitute θ = s·D and normal-order, by Horner's rule in θ."""
    out = DiffOp(())
    for c in reversed(e.coeffs):
        out = out.times_theta() + DiffOp.build({0: UniPoly.const(c)})
    return out


def to_differential_operator(g: GMOperator) -> DiffOp:
    """b^{-(d+h)}·P as a classical operator: B_{d+h}(θ) - c·λ^r·D^h·B_d(θ),
    where D^h·B_d(θ) = B_d(θ+h)·D^h.

    The result has order d+h and its top coefficient is s^{d+h} - c·λ^r·s^d.
    """
    # Horner over Q; a Fraction(0) takes the paths of an empty LaurentLambda
    e_dh = euler_form(g.P_dh).to_rational()
    e_d = euler_form(g.P_d).to_rational()
    lead = euler_to_diffop(e_dh)
    lead = DiffOp(tuple((k, p.map_coeffs(lambda c: c if isinstance(c, int) else as_laurent(c)))
                        for k, p in lead.parts))
    shifted = euler_to_diffop(e_d.compose(UniPoly((Fraction(g.h), Fraction(1)))))
    tail = DiffOp(tuple((k + g.h, p) for k, p in shifted.parts))
    out = lead - tail * g.lambda_part()
    top = out.coefficient(g.d + g.h)
    expect = UniPoly.x_power(g.d + g.h, as_laurent(1)) - \
        UniPoly.x_power(g.d, g.lambda_part())
    if top.map_coeffs(as_laurent) != expect:
        raise InternalError(f"top coefficient is not s^{g.d + g.h} - c·λ^r·s^{g.d}")
    return out


def singular_values(g: GMOperator) -> tuple[int, LaurentLambda]:
    """The equation s^h = c·λ^r satisfied by the nonzero singular points."""
    return g.h, g.lambda_part()
