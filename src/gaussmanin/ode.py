"""Classical ODE view of algebra elements: a acts as multiplication by s and
b as integration from 0, so b^{-1} is d/ds and θ = s·d/ds satisfies
b^{-i}·a^i = (θ+1)(θ+2)···(θ+i).

A homogeneous element of degree q becomes the Euler polynomial E with
b^{-q}·p = E(θ); a full operator becomes Σ p_k(s)·D^k with D·s = s·D + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .abalgebra import ABElement, HomogChain, require_homogeneous, times_euler_factor
from .engine import GMOperator
from .errors import InternalError, NotMonic
from .scalars import LaurentLambda, UniPoly, as_laurent

#: Euler polynomials are UniPoly values in θ over Q.
EulerPoly = UniPoly


def euler_form(p: ABElement) -> EulerPoly:
    """The polynomial E(θ) with b^{-q}·p = E(s·d/ds), q the degree of p."""
    q = require_homogeneous(p)
    num, den = p.numerators()
    col = {i: n for (_, i), n in num.items()}
    out = UniPoly()   # Horner: E = c_0 + (θ+1)·(c_1 + (θ+2)·(c_2 + ···)) over Z
    for i in range(q, -1, -1):
        out = out * UniPoly((i + 1, 1)) + UniPoly.const(col.get(i, 0))
    return UniPoly(Fraction(c, den) for c in out.coeffs)


def from_euler(e: EulerPoly, q: int) -> ABElement:
    """The homogeneous degree-q element whose Euler polynomial is e: Horner's
    rule in θ over the falling basis F_i(θ) = b^{-i}·a^i, on integers."""
    if e.degree > q:
        raise ValueError("Euler polynomial degree exceeds the element degree")
    coeffs = e.to_rational().coeffs
    den = math.lcm(*(c.denominator for c in coeffs))
    x = []
    for c in reversed(coeffs):
        x = times_euler_factor(x, 1, 0)
        x[0] += c.numerator * (den // c.denominator)
    return ABElement.from_numerators({(q - i, i): n for i, n in enumerate(x)}, den)


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
    return b.map_coeffs(lambda c: c if isinstance(c, int) else as_laurent(c))


def element_from_bernstein(b: UniPoly, d: int) -> ABElement:
    """Inverse of bernstein_polynomial: the monic homogeneous element of
    degree d with (-b)^d·B(-b^{-1}a) equal to it."""
    flip = UniPoly((Fraction(-1), Fraction(-1)))
    e = b.to_rational().compose(flip)   # b's LaurentLambda coefficients are constants
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


def euler_to_diffop(chain: HomogChain, shift: int = 0) -> list[int]:
    """x with Π_j (e_j·θ + t_j) = Σ_k x_k·s^k·D^k over chain.euler_factors(shift):
    x/x[-1] is the Euler polynomial in the basis s^k·D^k.  A factor maps x_k to
    e·x_{k-1} + (e·k + t)·x_k, as s^k·D^k·θ = s^{k+1}·D^{k+1} + k·s^k·D^k."""
    x = [1]
    for e, t in chain.euler_factors(shift):
        x.append(0)
        for k in range(len(x) - 1, -1, -1):
            x[k] = (e * x[k - 1] if k else 0) + (e * k + t) * x[k]
    return x


def to_differential_operator(g: GMOperator) -> DiffOp:
    """b^{-(d+h)}·P as a classical operator: E_{d+h}(θ) - c·λ^r·E_d(θ+h)·D^h
    with θ = s·D, as D^h·E_d(θ) = E_d(θ+h)·D^h.  With α and β the s^k·D^k
    vectors of E_{d+h}(θ) and E_d(θ+h), the coefficient of D^m is
    α_m·s^m - c·λ^r·β_{m-h}·s^{m-h}; the top one is s^{d+h} - c·λ^r·s^d.
    """
    d, h = g.d, g.h
    alpha, beta = euler_to_diffop(g.chain_dh), euler_to_diffop(g.chain_d, h)
    parts, empty = {}, LaurentLambda()
    gamma = 0   # γ_m, the s^m·D^m entry of (E_{d+h}(θ) - E_{d+h}(0))/θ, scaled as α
    for m in range(d + h, -1, -1):
        a, b = alpha[m], beta[m - h] if m >= h else 0
        gamma = a - m * gamma   # γ_{m-1}, from α_m = m·γ_m + γ_{m-1}
        if not (a or b):
            continue
        # The JSON writes a zero as "0" (int 0) or [] (an empty LaurentLambda), as
        # Horner's rule in θ leaves them: each zero below s^m is int 0, except
        # s^{m-1}, which is [] when γ_{m-1} ≠ 0, and each zero below the tail term.
        p = [0] * m + [LaurentLambda.const(Fraction(a, alpha[-1]))]
        if m and gamma:
            p[m - 1] = empty
        if b:
            p[:m - h + 1] = [empty] * (m - h) + [
                LaurentLambda.monomial(g.r, -g.c * Fraction(b, beta[-1]))]
        parts[m] = UniPoly(p)
    out = DiffOp.build(parts)
    top = out.coefficient(d + h)
    if top.degree != d + h or top[d + h] != 1 or top[d] != LaurentLambda.monomial(g.r, -g.c):
        raise InternalError(f"top coefficient is not s^{d + h} - c·λ^r·s^{d}")
    return out


def singular_values(g: GMOperator) -> tuple[int, LaurentLambda]:
    """The equation s^h = c·λ^r satisfied by the nonzero singular points."""
    return g.h, g.lambda_part()
