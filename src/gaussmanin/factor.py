"""Factorization of monic-in-a elements in the b-adic completion.

Two engines:
  * hensel_decompose lifts the coprime factorization of the class mod b to a
    product of factors in the completion (spectral decomposition);
  * split_irregular splits an element whose initial form is ρ·b^q·(monic)
    into a totally irregular left factor times a regular right factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .abalgebra import ABElement, right_divide
from .engine import GMOperator
from .errors import (
    HIsZero,
    InternalError,
    LambdaZero,
    NotRegular,
    PreconditionError,
    PreconditionInitialForm,
    TruncationTooSmall,
)
from .ode import bernstein_polynomial
from .scalars import UniPoly, bezout


def is_regular(p: ABElement) -> bool:
    """True iff the initial form of p has full degree, i.e. degree equal to
    the a-degree of p; for the cyclic module this is the simple-pole test."""
    return p.initial_form().ab_degree == p.a_degree


def bernstein_element(p: ABElement) -> ABElement:
    """The homogeneous initial form of a regular element, normalized monic."""
    if not is_regular(p):
        raise NotRegular("initial form degree is below the a-degree")
    init = p.initial_form()
    return init * (1 / init.coeff(0, init.a_degree))


# ---------------------------------------------------------------------------
# Spectral (Hensel) decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FactorData:
    """One factor of a spectral decomposition.

    regular is None when the stored truncation is too small to expose the
    factor's initial form (deep blocks need order > their valuation).
    """

    element: ABElement          # truncated, monic in a
    mod_b_class: UniPoly        # power of a single irreducible over Q
    rank: int                   # a-degree
    regular: bool | None
    bernstein: ABElement | None

    def to_json(self) -> dict:
        return {
            "element": self.element.to_json(),
            "mod_b_class": self.mod_b_class.to_json(),
            "rank": self.rank,
            "regular": self.regular,
            "bernstein": self.bernstein.to_json() if self.bernstein else None,
        }

    @classmethod
    def from_json(cls, data) -> "FactorData":
        return cls(
            element=ABElement.from_json(data["element"]),
            mod_b_class=UniPoly.from_json(data["mod_b_class"]),
            rank=int(data["rank"]),
            regular=data["regular"],
            bernstein=ABElement.from_json(data["bernstein"]) if data["bernstein"] else None,
        )


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """Ordered factorization p = f_1···f_l modulo b^trunc."""

    factors: tuple[FactorData, ...]
    trunc: int

    def product(self) -> ABElement:
        out = ABElement.one(self.trunc)
        for f in self.factors:
            out = out * f.element
        return out

    def to_json(self) -> dict:
        return {"trunc": self.trunc, "factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data) -> "FactorizationResult":
        return cls(tuple(FactorData.from_json(f) for f in data["factors"]),
                   int(data["trunc"]))


def _b_layer_numerators(p: ABElement, k: int) -> list[int]:
    """Numerators over p.den of the coefficient of b^k, a polynomial in a."""
    row = {i: n for (kk, i), n in p.num.items() if kk == k}
    return [row.get(i, 0) for i in range(max(row, default=-1) + 1)]


def _b_layer(p: ABElement, k: int) -> UniPoly:
    """Coefficient of b^k as a rational polynomial in a."""
    return UniPoly([Fraction(n, p.den) for n in _b_layer_numerators(p, k)])


def _cleared(p: UniPoly) -> tuple[list[int], int]:
    """(N, D) with p = N/D for integers N and the lcm D of the denominators."""
    cs = [Fraction(c) for c in p.coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _int_mul(x: list[int], y: list[int]) -> list[int]:
    """The product of two integer coefficient lists; zeros cost nothing."""
    if not x or not y:
        return []
    out = [0] * (len(x) + len(y) - 1)
    ys = [(j, c) for j, c in enumerate(y) if c]
    for i, c in enumerate(x):
        if c:
            for j, d in ys:
                out[i + j] += c * d
    return out


def _int_divmod(num: list[int], den: int, f: list[int]) -> tuple[list[int], list[int], int]:
    """(Q, R, D) with num/den = (Q/D)·(f/δ) + R/D and deg R < deg f, where
    f/δ is a monic polynomial and δ = f[-1] > 0.  Each step scales by δ, so
    division by an integral monic polynomial (δ = 1) keeps den as it is."""
    m, delta = len(f) - 1, f[-1]
    tail = [(i, c) for i, c in enumerate(f[:-1]) if c]
    r, q = list(num), [0] * max(0, len(num) - m)
    for j in range(len(r) - 1, m - 1, -1):
        c = r[j]
        if not c:
            continue
        if delta != 1:
            q = [x * delta for x in q]
            r = [x * delta for x in r]
            den *= delta
        q[j - m] = c * delta
        for i, fc in tail:
            r[j - m + i] -= c * fc
        r[j] = 0
    return q, r[:m], den


def _lift_pair(p: ABElement, f1: UniPoly, f2: UniPoly, order: int) -> tuple[ABElement, ABElement]:
    """Lift p = L·R mod b^order from the coprime classes L = f1, R = f2 mod b.

    The correction at b-order k solves the commutative Bezout equation
    u·f2 + v·f1 = e_k; corrections commute with a up to higher b-order
    because a·b^k = b^k·a + k·b^(k+1).  Each layer updates the defect by its
    corrections: p − (L+du)(R+dv) = (p − L·R) − du·R − L·dv − du·dv.
    u and v are computed on integer numerators over one denominator each.
    """
    _, t = bezout(f1, f2)
    (t_num, t_den), (f1_num, _), (f2_num, f2_den) = _cleared(t), _cleared(f1), _cleared(f2)
    left = ABElement.from_poly_in_a(f1, order)
    right = ABElement.from_poly_in_a(f2, order)
    defect = p - left * right
    for k in range(1, order):
        if defect.is_zero():
            break
        if defect.b_order < k:
            raise InternalError(f"the lift defect has a term below b^{k}")
        e_k = _b_layer_numerators(defect, k)
        if not e_k:
            continue
        # u·f2 = e_k mod f1 via the inverse t of f2 modulo f1
        _, u, u_den = _int_divmod(_int_mul(e_k, t_num), defect.den * t_den, f1_num)
        # v = (e_k − u·f2) / f1, over the denominator u_den·f2_den
        scale = u_den * f2_den // defect.den
        rest = [e * scale - x for e, x in zip_longest(e_k, _int_mul(u, f2_num), fillvalue=0)]
        v, _, v_den = _int_divmod(rest, u_den * f2_den, f1_num)
        du = ABElement.from_numerators({(k, i): c for i, c in enumerate(u)}, u_den, order)
        dv = ABElement.from_numerators({(k, i): c for i, c in enumerate(v)}, v_den, order)
        defect -= du * right + left * dv + du * dv
        left, right = left + du, right + dv
    if not (p - left * right).is_zero():
        raise InternalError(f"the lifted pair does not reconstruct p mod b^{order}")
    return left, right


def default_truncation(p: ABElement) -> int:
    """Default b-adic order when entering the completion: 2·degree + 4."""
    if p.trunc is not None:
        return p.trunc
    return 2 * p.ab_degree + 4


def hensel_decompose(p: ABElement, order: int | None = None,
                     classes: list[UniPoly] | None = None) -> FactorizationResult:
    """Spectral decomposition of p modulo b^order.

    p must be monic in a.  The factors follow the coprime splitting of p
    mod b; each factor is congruent to its coprime piece mod b and the
    product reconstructs p mod b^order.  An explicit ordering of the mod-b
    classes may be supplied.
    """
    from .scalars import coprime_split

    if order is None:
        order = default_truncation(p)
    if order < 2:
        raise TruncationTooSmall("need truncation order >= 2")
    if not p.is_monic_in_a():
        raise PreconditionInitialForm("input must be monic in a")
    if p.trunc is not None and p.trunc < order:
        raise TruncationTooSmall("input known to lower order than requested")
    p = p.truncate(order)
    pbar = p.mod_b()
    if classes is None:
        classes = coprime_split(pbar)
    else:
        prod = UniPoly.const(Fraction(1))
        for c in classes:
            prod = prod * c
        if prod != pbar:
            raise PreconditionError("the supplied classes do not multiply to the class of p mod b")

    factors: list[ABElement] = []
    rest = p
    for f1 in classes[:-1]:
        left, right = _lift_pair(rest, f1, rest.mod_b() // f1, order)
        factors.append(left)
        rest = right
    factors.append(rest)

    data = []
    for fac, cls_ in zip(factors, classes):
        try:
            reg = is_regular(fac)
        except TruncationTooSmall:
            reg = None
        data.append(FactorData(
            element=fac,
            mod_b_class=cls_,
            rank=fac.a_degree,
            regular=reg,
            bernstein=bernstein_element(fac) if reg else None,
        ))
    result = FactorizationResult(tuple(data), order)
    if sum(f.rank for f in data) != p.a_degree:
        raise InternalError("factor ranks do not sum to the a-degree of p")
    for fac, cls_ in zip(factors, classes):
        if fac.mod_b() != cls_:
            raise InternalError(f"a factor is not {cls_.format('a')} mod b")
    return result


# ---------------------------------------------------------------------------
# Irregular x regular splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IrregularSplit:
    """Factorization p = (rho·b^q + Z)·(P_{d-q} + Q) modulo b^trunc.

    The left factor generates the totally irregular part; the right factor
    is regular with Bernstein element P_{d-q}.
    """

    left: ABElement
    right: ABElement
    rho: Fraction
    q: int
    d: int
    h: int
    trunc: int

    @property
    def irregular_rank(self) -> int:
        return self.q + self.h

    @property
    def regular_rank(self) -> int:
        return self.d - self.q

    def to_json(self) -> dict:
        return {
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "rho": str(self.rho),
            "q": self.q,
            "d": self.d,
            "h": self.h,
            "trunc": self.trunc,
        }

    @classmethod
    def from_json(cls, data) -> "IrregularSplit":
        return cls(
            left=ABElement.from_json(data["left"]),
            right=ABElement.from_json(data["right"]),
            rho=Fraction(data["rho"]),
            q=int(data["q"]),
            d=int(data["d"]),
            h=int(data["h"]),
            trunc=int(data["trunc"]),
        )


def split_irregular(p: ABElement, order: int | None = None) -> IrregularSplit:
    """Split p into (rho·b^q + Z)·(P_{d-q} + Q) correct modulo b^order.

    Preconditions: p monic in a of degree d+h with h >= 1, congruent to
    a^{d+h} mod b (when q = 0 the initial form itself may add rho·a^d to the
    class), and its initial form factors as rho·b^q·(monic of degree d-q).
    The recursion peels homogeneous degrees: at degree n+1 the residual is
    right-divided by P_{d-q} and the remainder, always divisible by b^q,
    feeds the right factor.
    """
    if order is None:
        order = default_truncation(p)
    if order < 2:
        raise TruncationTooSmall("need truncation order >= 2")
    if p.is_zero() or not p.is_monic_in_a():
        raise PreconditionInitialForm("input must be monic in a")
    if p.trunc is not None and p.trunc < order:
        raise TruncationTooSmall("input known to lower order than requested")
    total = p.a_degree

    init = p.initial_form()
    d = init.ab_degree
    h = total - d
    if h == 0:
        raise HIsZero("element is regular: no irregular part to split off")
    q = init.b_order
    rho = init.coeff(q, d - q)
    if rho == 0:
        raise PreconditionInitialForm("initial form is not rho·b^q·(monic in a)")
    # class mod b must be a^{d+h}; for q = 0 the initial form itself
    # contributes rho·a^d at b-order zero, which is the only exception
    mod = p.mod_b() - init.mod_b()
    if mod.degree != total or mod[total] != 1 or any(
            mod[i] != 0 for i in range(total)):
        raise PreconditionInitialForm(
            "class mod b must be a^(d+h) up to the initial form")
    p_base = init.shift_b(-q) * (Fraction(1) / rho)   # monic homogeneous, degree d-q

    bound = order + d + h
    work_trunc = bound + 1
    pw = p.with_trunc(work_trunc)
    X = ABElement.term(q, 0, rho, trunc=work_trunc)
    W = p_base.with_trunc(work_trunc)
    residual = X * W - pw
    for n in range(d, bound):
        # all degrees <= n must already be resolved
        layer = residual.component(n + 1)
        if layer.is_zero():
            continue
        xi, rem = right_divide(-layer, p_base)
        if not rem.is_zero():
            if rem.b_order < q:
                raise InternalError(f"a remainder of the split is not divisible by b^{q}")
            eta = rem.shift_b(-q) * (Fraction(1) / rho)
        else:
            eta = ABElement.zero(work_trunc)
        xi = xi.with_trunc(work_trunc)
        eta = eta.with_trunc(work_trunc)
        residual = residual + xi * W + X * eta + xi * eta
        X = X + xi
        W = W + eta
    if not residual.is_zero() and residual.ab_valuation <= bound:
        raise InternalError(f"the split leaves a residual of degree <= {bound}")

    left = X.truncate(order)
    right = W.truncate(order)
    Z = left - ABElement.term(q, 0, rho, trunc=order)
    Q = right - p_base.with_trunc(order)
    if not Z.is_zero() and (Z.a_degree != q + h or Z.ab_valuation < q + 1):
        raise InternalError("the irregular factor's tail Z has the wrong shape")
    if not Q.is_zero() and (Q.a_degree > d - q - 1 or Q.ab_valuation < d - q + 1):
        raise InternalError("the regular factor's tail Q has the wrong shape")
    return IrregularSplit(left=left, right=right, rho=rho, q=q, d=d, h=h, trunc=order)


# ---------------------------------------------------------------------------
# End-to-end pipeline: factor the operator, isolate the eigenvalue-0 block,
# extract the regular part's Bernstein element and test divisibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ZeroBlockReport:
    rank: int
    regular: bool
    q: int                      # b-order of the initial form
    initial_degree: int
    irregular_rank: int         # q + h of the block; 0 when regular
    regular_rank: int           # d - q of the block ("rank at most d-q")
    left_label: str | None      # "totally irregular" for the split's left factor
    bernstein: ABElement
    bernstein_poly: UniPoly
    divides_P_d: bool
    quotient: ABElement | None

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "regular": self.regular,
            "q": self.q,
            "initial_degree": self.initial_degree,
            "irregular_rank": self.irregular_rank,
            "regular_rank": self.regular_rank,
            "left_label": self.left_label,
            "bernstein": self.bernstein.to_json(),
            "bernstein_poly": self.bernstein_poly.to_json(),
            "divides_P_d": self.divides_P_d,
            "quotient": self.quotient.to_json() if self.quotient else None,
        }

    @classmethod
    def from_json(cls, data) -> "ZeroBlockReport":
        return cls(
            rank=int(data["rank"]),
            regular=bool(data["regular"]),
            q=int(data["q"]),
            initial_degree=int(data["initial_degree"]),
            irregular_rank=int(data["irregular_rank"]),
            regular_rank=int(data["regular_rank"]),
            left_label=data["left_label"],
            bernstein=ABElement.from_json(data["bernstein"]),
            bernstein_poly=UniPoly.from_json(data["bernstein_poly"]),
            divides_P_d=bool(data["divides_P_d"]),
            quotient=ABElement.from_json(data["quotient"]) if data["quotient"] else None,
        )


@dataclass(frozen=True, eq=False)
class PipelineReport:
    lambda_value: Fraction
    trunc: int
    operator_rank: int
    mod_b_class: UniPoly
    factorization: FactorizationResult
    zero_block: ZeroBlockReport

    def to_json(self) -> dict:
        return {
            "lambda": str(self.lambda_value),
            "trunc": self.trunc,
            "operator_rank": self.operator_rank,
            "mod_b_class": self.mod_b_class.to_json(),
            "factors": [
                {"rank": f.rank, "regular": f.regular, "mod_b_class": f.mod_b_class.to_json()}
                for f in self.factorization.factors
            ],
            "factorization": self.factorization.to_json(),
            "zero_block": self.zero_block.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "PipelineReport":
        return cls(
            lambda_value=Fraction(data["lambda"]),
            trunc=int(data["trunc"]),
            operator_rank=int(data["operator_rank"]),
            mod_b_class=UniPoly.from_json(data["mod_b_class"]),
            factorization=FactorizationResult.from_json(data["factorization"]),
            zero_block=ZeroBlockReport.from_json(data["zero_block"]),
        )

    def summary_lines(self) -> list[str]:
        zb = self.zero_block
        lines = [
            f"lambda = {self.lambda_value}, truncation b^{self.trunc}",
            f"operator rank d+h = {self.operator_rank}",
            f"class mod b: {self.mod_b_class.format('a')}",
            "spectral blocks: " + ", ".join(
                f"rank {f.rank} ({f.mod_b_class.format('a')})"
                for f in self.factorization.factors),
            f"eigenvalue-0 block: rank {zb.rank}, "
            + ("regular" if zb.regular else
               f"irregular (q = {zb.q}, initial degree {zb.initial_degree}; "
               f"left factor {zb.left_label} of rank {zb.irregular_rank}, "
               f"regular part of rank at most {zb.regular_rank})"),
            f"Bernstein element: {zb.bernstein}",
            f"Bernstein polynomial: {zb.bernstein_poly.format('x')}",
            f"right-divides P_d: {'yes' if zb.divides_P_d else 'NO'}",
        ]
        return lines


def regular_quotient_pipeline(g: GMOperator, lambda_value: Fraction,
                              order: int = 16) -> PipelineReport:
    """Specialize lambda, factor the operator spectrally, analyze the
    eigenvalue-0 block and verify that its regular part's Bernstein element
    right-divides P_d exactly."""
    lambda_value = Fraction(lambda_value)
    if lambda_value == 0:
        raise LambdaZero("the parameter must be nonzero")
    p = g.specialized(lambda_value)
    result = hensel_decompose(p, order)

    zero = next((f for f in result.factors
                 if f.mod_b_class[0] == 0), None)
    if zero is None:
        raise InternalError("the operator class has no eigenvalue-0 block")

    block = zero.element
    if zero.regular is None:
        raise TruncationTooSmall(
            f"the eigenvalue-0 block has rank {zero.rank}; rerun with a "
            f"truncation order of at least {zero.rank + 2} to expose its "
            f"initial form")
    if zero.regular:
        bern = zero.bernstein
        q = 0
        init_deg = block.initial_form().ab_degree
        irr_rank = 0
        reg_rank = zero.rank
        label = None
    else:
        split = split_irregular(block, order)
        bern = bernstein_element(split.right)
        q = split.q
        init_deg = split.d
        irr_rank = split.irregular_rank
        reg_rank = split.regular_rank
        label = "totally irregular"

    quot, rem = right_divide(g.P_d, bern)
    divides = rem.is_zero()

    zb = ZeroBlockReport(
        rank=zero.rank, regular=zero.regular, q=q,
        initial_degree=init_deg, irregular_rank=irr_rank, regular_rank=reg_rank,
        left_label=label, bernstein=bern,
        bernstein_poly=bernstein_polynomial(bern),
        divides_P_d=divides, quotient=quot if divides else None)
    return PipelineReport(
        lambda_value=lambda_value, trunc=order,
        operator_rank=g.d + g.h,
        mod_b_class=p.mod_b(),
        factorization=result,
        zero_block=zb)
