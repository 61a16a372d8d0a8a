"""Exact arithmetic in the algebra A = C<a,b> with a·b - b·a = b².

Elements are kept in "b-left" normal form, sum of c_{k,i}·b^k·a^i, so
b-adic truncation and initial forms read directly off the representation.
All products reduce with the single rewrite a·b^k = b^k·a + k·b^(k+1),
equivalently a·c(b) = c(b)·a + b²·c'(b) for a coefficient series c, on
integer numerators in `_mul_int`.  Inside its term-pair loop a monomial
b^k·a^i is the one int k·S + i (S is one more than the largest a-power of
the product), and the weights C(i1,t)·k2(k2+1)···(k2+t-1) come from the
table `_WEIGHTS`, whose row (i1, k2) grows only as far as some product has
needed (1,965 rows, about 2 MB, after e61 `factor --prec 63`).  theta_k
works on integer numerators too: one right product by b^kk per b-power kk.

A chain of degree-1 factors skips the kernel: `HomogChain.expand` builds its
Euler polynomial Π_j (e_j·θ + t_j) on integers in the falling basis
F_i(θ) = (θ+1)···(θ+i) = b^{-i}·a^i, one `times_euler_factor` per factor.

Elements are immutable; every operation is pure.  The weight table is the
one piece of module state: a cache of fixed integers whose rows are only ever
replaced by longer copies, so threads may share it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    MalformedSpec,
    NonMonicDivisor,
    NotHomogeneous,
    TruncationTooSmall,
    ZeroElement,
)
from .scalars import UniPoly

_ZERO = Fraction(0)


def _min_trunc(t1: int | None, t2: int | None) -> int | None:
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return min(t1, t2)


# (i1, k2) -> [w_1, w_2, ...], the weights of b^k2 moved past a^i1 (see _mul_int);
# a row grows only as far as some product has needed, and at most to w_i1
_WEIGHTS: dict[tuple[int, int], list[int]] = {}


def _mul_int(x: dict, y: dict, trunc: int | None) -> dict:
    """x·y for maps (b_power, a_power) -> int, dropping b-powers >= trunc.

    The one rewrite a·b^k = b^k·a + k·b^(k+1) gives
    b^k1·a^i1 · b^k2·a^i2 = Σ_t C(i1,t)·k2(k2+1)···(k2+t-1)·b^(k1+k2+t)·a^(i1+i2-t),
    whose t-th weight w is the (t-1)-th times (i1-t+1)·(k2+t-1)/t.  Inside the
    loop a key is k·S + i with S above every a-power of the product, so step t
    moves it by S - 1; keys are unpacked once at the end, in insertion order.
    """
    if not x or not y:
        return {}
    size = max(i for _, i in x) + max(i for _, i in y) + 1
    step = size - 1
    ys = [(k2, k2 * size + i2, c2) for (k2, i2), c2 in y.items()]
    out: dict[int, int] = {}
    get = out.get
    rows = _WEIGHTS
    for (k1, i1), c1 in x.items():
        base = k1 * size + i1
        for k2, key2, c2 in ys:
            top = i1 if k2 else 0   # b^0 commutes with a
            if trunc is not None:
                top = min(top, trunc - 1 - k1 - k2)
                if top < 0:
                    continue
            c = c1 * c2
            key = base + key2
            out[key] = get(key, 0) + c
            if top:
                row = rows.get((i1, k2), ())
                n = len(row)
                if n > top:
                    row = row[:top]
                elif n < top:
                    # a longer copy replaces the row: no reader sees one half grown
                    w = row[-1] if row else 1
                    row = list(row)
                    for t in range(n + 1, top + 1):
                        w = w * (i1 - t + 1) * (k2 + t - 1) // t
                        row.append(w)
                    rows[i1, k2] = row
                for w in row:
                    key += step
                    out[key] = get(key, 0) + c * w
    return {divmod(key, size): c for key, c in out.items()}


class _Terms(Mapping):
    """Read-only view of an element's terms, (b_power, a_power) -> Fraction."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


class ABElement:
    """Element of A (or of its b-adic truncation A / b^N·A).

    The terms are num/den: num maps (b_power, a_power) to a nonzero integer
    and den is a positive integer with gcd(den, *num.values()) = 1 (den = 1
    for zero), so equal elements store equal (num, den).  terms is the
    Fraction view of the same coefficients.  trunc is None for exact
    elements; a truncated element drops every term with b_power >= trunc.
    λ never enters an element: the operator carries it in the scalar c·λ^r.
    """

    __slots__ = ("num", "den", "trunc")

    def __init__(self, terms=None, trunc: int | None = None):
        coeffs = {}
        if terms:
            for (k, i), c in terms.items():
                if trunc is not None and k >= trunc:
                    continue
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"coefficient {c!r} is not rational")
                if c:
                    coeffs[(k, i)] = c
        # the lcm of reduced denominators is already prime to the numerators
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.num = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self.den = den
        self.trunc = trunc

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_numerators(cls, num: dict, den: int, trunc: int | None = None) -> "ABElement":
        """The element num/den for integer numerators at b-powers below trunc
        and den > 0; zero numerators are dropped and the fraction reduced."""
        num = {key: n for key, n in num.items() if n}
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {key: n // g for key, n in num.items()}
                den //= g
        e = cls.__new__(cls)
        e.num, e.den, e.trunc = num, den, trunc
        return e

    @classmethod
    def zero(cls, trunc: int | None = None) -> "ABElement":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int | None = None) -> "ABElement":
        return cls({(0, 0): Fraction(1)}, trunc)

    @classmethod
    def a(cls) -> "ABElement":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def b(cls) -> "ABElement":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def term(cls, b_power: int, a_power: int, coeff=1, trunc: int | None = None) -> "ABElement":
        return cls({(b_power, a_power): coeff}, trunc)

    @classmethod
    def linear(cls, eta, theta) -> "ABElement":
        """eta·a + theta·b."""
        return cls({(0, 1): eta, (1, 0): theta})

    @classmethod
    def from_poly_in_a(cls, p: UniPoly, trunc: int | None = None) -> "ABElement":
        return cls({(0, i): c for i, c in enumerate(p.coeffs)}, trunc)

    # -- degrees ---------------------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """The coefficients as normalized Fractions, built on access."""
        return _Terms(self.num, self.den)

    def is_zero(self) -> bool:
        return not self.num

    @property
    def a_degree(self) -> int:
        if not self.num:
            raise ZeroElement("a_degree of zero")
        return max(i for (_, i) in self.num)

    @property
    def b_order(self) -> int:
        if not self.num:
            raise ZeroElement("b_order of zero")
        return min(k for (k, _) in self.num)

    @property
    def ab_valuation(self) -> int:
        if not self.num:
            raise ZeroElement("valuation of zero")
        return min(k + i for (k, i) in self.num)

    @property
    def ab_degree(self) -> int:
        """Total (a,b)-degree; only meaningful for exact (finite) elements."""
        if not self.num:
            raise ZeroElement("degree of zero")
        return max(k + i for (k, i) in self.num)

    def is_homogeneous(self) -> bool:
        if not self.num:
            return True
        degs = {k + i for (k, i) in self.num}
        return len(degs) == 1

    def coeff(self, b_power: int, a_power: int) -> Fraction:
        n = self.num.get((b_power, a_power))
        return Fraction(n, self.den) if n else _ZERO

    def a_coefficient(self, a_power: int) -> dict[int, Fraction]:
        """The coefficient of a^i as a map b_power -> coefficient."""
        return {k: Fraction(n, self.den) for (k, i), n in self.num.items() if i == a_power}

    def is_monic_in_a(self) -> bool:
        """Leading a-coefficient is exactly 1 (b-free)."""
        if not self.num:
            return False
        d = self.a_degree
        col = {k: n for (k, i), n in self.num.items() if i == d}
        return set(col) == {0} and col[0] == self.den

    def numerators(self) -> tuple[dict[tuple[int, int], int], int]:
        """(num, den) with terms = num/den; den is the lcm of the denominators.
        This is the stored representation: callers must not change it."""
        return self.num, self.den

    # -- ring operations ---------------------------------------------------------

    def _combine(self, other: "ABElement", sign: int) -> "ABElement":
        """self + sign·other on the lcm of the two denominators."""
        trunc = _min_trunc(self.trunc, other.trunc)
        den = math.lcm(self.den, other.den)
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for e, scale in ((self, den // self.den), (other, sign * (den // other.den))):
            for key, n in e.num.items():
                if trunc is None or key[0] < trunc:
                    out[key] = get(key, 0) + n * scale
        return ABElement.from_numerators(out, den, trunc)

    def __add__(self, other):
        if not isinstance(other, ABElement):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, ABElement):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return ABElement.from_numerators({key: -n for key, n in self.num.items()},
                                         self.den, self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ABElement.from_numerators(
                {key: n * other.numerator for key, n in self.num.items()},
                self.den * other.denominator, self.trunc)
        if not isinstance(other, ABElement):
            return NotImplemented
        trunc = _min_trunc(self.trunc, other.trunc)
        return ABElement.from_numerators(_mul_int(self.num, other.num, trunc),
                                         self.den * other.den, trunc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        out = ABElement.one(self.trunc)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, ABElement):
            return NotImplemented
        return (self.num, self.den, self.trunc) == (other.num, other.den, other.trunc)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.trunc))

    # -- truncation and gradings ---------------------------------------------------

    def with_trunc(self, order: int | None) -> "ABElement":
        """The same terms below b^order, marked truncated at order (None: exact)."""
        return ABElement.from_numerators(
            {key: n for key, n in self.num.items() if order is None or key[0] < order},
            self.den, order)

    def truncate(self, order: int) -> "ABElement":
        """Drop terms with b_power >= order and mark the element truncated."""
        if order < 1:
            raise TruncationTooSmall(f"truncation order {order} < 1")
        return self.with_trunc(order)

    def shift_b(self, q: int) -> "ABElement":
        """Multiply by b^q on the left (q may be negative if valuations allow)."""
        if q < 0 and any(k + q < 0 for (k, _) in self.num):
            raise ValueError("negative b-shift below order 0")
        trunc = None if self.trunc is None else self.trunc + q
        return ABElement.from_numerators({(k + q, i): n for (k, i), n in self.num.items()},
                                         self.den, trunc)

    def component(self, degree: int) -> "ABElement":
        """Homogeneous component of the given (a,b)-degree."""
        return ABElement.from_numerators(
            {key: n for key, n in self.num.items() if key[0] + key[1] == degree},
            self.den, self.trunc)

    def initial_form(self) -> "ABElement":
        """The homogeneous component of lowest (a,b)-degree."""
        if not self.num:
            if self.trunc is not None:
                raise TruncationTooSmall("element vanishes to the stored order")
            raise ZeroElement("initial form of zero")
        v = self.ab_valuation
        if self.trunc is not None and self.trunc <= v:
            raise TruncationTooSmall("truncation hides the initial form")
        return self.component(v).with_trunc(None)

    def mod_b(self) -> UniPoly:
        """The class modulo b·A as a polynomial in a."""
        if not self.num:
            return UniPoly()
        d = self.a_degree
        cs = [_ZERO] * (d + 1)
        for (k, i), n in self.num.items():
            if k == 0:
                cs[i] = Fraction(n, self.den)
        return UniPoly(cs)

    # -- io ---------------------------------------------------------------------

    def to_json(self) -> dict:
        # a coefficient is written as the λ-polynomial [[0, "p/q"]]
        terms = [{"b": k, "a": i, "c": [[0, str(Fraction(n, self.den))]]}
                 for (k, i), n in sorted(self.num.items())]
        return {"trunc": self.trunc, "terms": terms}

    @classmethod
    def from_json(cls, data) -> "ABElement":
        terms = {}
        for t in data["terms"]:
            c = Fraction(0)
            for e, v in t["c"]:
                if e != 0:
                    raise MalformedSpec(f"coefficient {t['c']} of b^{t['b']}·a^{t['a']} "
                                        f"involves λ; algebra elements are rational")
                c += Fraction(v)
            terms[(t["b"], t["a"])] = c
        return cls(terms, data.get("trunc"))

    def __str__(self):
        if not self.num:
            return "0"
        def key(item):
            (k, i), _ = item
            return (-(k + i), -i)
        parts = []
        for (k, i), c in sorted(self.terms.items(), key=key):
            mono = "·".join(s for s in (
                f"b^{k}" if k > 1 else ("b" if k == 1 else ""),
                f"a^{i}" if i > 1 else ("a" if i == 1 else "")) if s)
            if not mono:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}·{mono}")
        s = " + ".join(parts).replace("+ -", "- ")
        if self.trunc is not None:
            s += f" + O(b^{self.trunc})"
        return s

    def __repr__(self):
        return f"ABElement({dict(self.terms)!r}, trunc={self.trunc!r})"


# ---------------------------------------------------------------------------
# Right division
# ---------------------------------------------------------------------------

def right_divide(p: ABElement, dvs: ABElement) -> tuple[ABElement, ABElement]:
    """Right division p = quot·dvs + rem with a_degree(rem) < a_degree(dvs).

    The divisor's leading a-coefficient must have no b-part; it is then a
    nonzero rational, hence a unit.  For homogeneous p and homogeneous
    divisor the division is exact and graded; otherwise it is exact up to
    the common truncation order.
    """
    if dvs.is_zero():
        raise NonMonicDivisor("division by zero")
    e = dvs.a_degree
    lead_col = dvs.a_coefficient(e)
    if set(lead_col) != {0}:
        raise NonMonicDivisor("leading a-coefficient has positive b-order")
    lead = lead_col[0]
    trunc = _min_trunc(p.trunc, dvs.trunc)
    quot = ABElement.zero(trunc)
    rem = p.with_trunc(trunc)
    while rem.num and rem.a_degree >= e:
        i = rem.a_degree
        col = rem.a_coefficient(i)
        t = ABElement({(k, i - e): c / lead for k, c in col.items()}, trunc)
        quot = quot + t
        rem = rem - t * dvs
    return quot, rem


# ---------------------------------------------------------------------------
# Anti-automorphisms theta_k
# ---------------------------------------------------------------------------

def theta_k(p: ABElement, k: int) -> ABElement:
    """The anti-automorphism with theta(a) = a - k·b, theta(b) = -b.

    Anti-multiplicative: theta(x·y) = theta(y)·theta(x); an involution.
    """
    if p.trunc is not None:
        raise ValueError("theta_k needs a finite (untruncated) element")
    if not p.num:
        return p
    # theta(b^kk·a^i) = theta(a)^i·theta(b)^kk = (-1)^kk·(a - k·b)^i·b^kk: the terms
    # of one b-power kk are summed over the powers of a - k·b, then times b^kk once
    gen = {(0, 1): 1, (1, 0): -k}
    powers = [{(0, 0): 1}]
    for _ in range(p.a_degree):
        powers.append(_mul_int(gen, powers[-1], None))
    groups: dict[int, dict] = {}
    for (kk, i), n in p.num.items():
        acc = groups.setdefault(kk, {})
        n = -n if kk & 1 else n
        for key, w in powers[i].items():
            acc[key] = acc.get(key, 0) + n * w
    out: dict[tuple[int, int], int] = {}
    for kk, acc in groups.items():
        for key, n in _mul_int(acc, {(kk, 0): 1}, None).items():
            out[key] = out.get(key, 0) + n
    return ABElement.from_numerators(out, p.den)


# ---------------------------------------------------------------------------
# Homogeneous chains of degree-1 factors
# ---------------------------------------------------------------------------

def times_euler_factor(x: list, e, t) -> list:
    """The falling-basis coordinates of (e·θ + t)·Σ x_i·F_i(θ), F_i = (θ+1)···(θ+i).

    As θ·F_i = F_{i+1} - (i+1)·F_i, the factor maps x_i to
    e·x_{i-1} + (t - e·(i+1))·x_i; the coordinates may be any rationals.
    """
    return [(t - e * i) * xi + e * prev
            for i, (prev, xi) in enumerate(zip([0, *x], [*x, 0]), 1)]


def _clearing_scale(eta: Fraction, theta: Fraction) -> int:
    return math.lcm(eta.denominator, theta.denominator)


def _falling_element(x: list, den: int) -> ABElement:
    """Σ x_i·b^(q-i)·a^i / den, q = len(x) - 1: the falling-basis coordinates of an
    Euler polynomial as the homogeneous element they stand for."""
    q = len(x) - 1
    return ABElement.from_numerators({(q - i, i): n for i, n in enumerate(x)}, den)


@dataclass(frozen=True)
class HomogChain:
    """Ordered product of degree-1 factors (eta·a + theta·b), leftmost first."""

    factors: tuple[tuple[Fraction, Fraction], ...]

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def leading(self) -> Fraction:
        out = Fraction(1)
        for eta, _ in self.factors:
            out *= eta
        return out

    def euler_factors(self, shift: int = 0) -> list[tuple[int, int]]:
        """The Euler factors at θ + shift as integer pairs (e_j, t_j) for
        e_j·θ + t_j: factor j is η_j·(θ + q - j + 1) + θ_j cleared to integers, as
        b^{-1}·a is θ + 1, shifted by the q - j factors to the right of factor j."""
        q = self.degree
        out = []
        for j, (eta, theta) in enumerate(self.factors, 1):
            scale = _clearing_scale(eta, theta)
            e = int(eta * scale)
            out.append((e, e * (q - j + 1 + shift) + int(theta * scale)))
        return out

    @cached_property
    def _tail_build(self) -> tuple[list, int]:
        """The falling-basis coordinates of factors[1:] and their clearing scale,
        built once for `expand` and `expand_tail`: factor j of the chain and factor
        j - 1 of its tail have the same Euler factor."""
        x = [1]
        for e, t in self.euler_factors()[1:]:
            x = times_euler_factor(x, e, t)
        return x, math.prod(_clearing_scale(*f) for f in self.factors[1:])

    def expand(self) -> ABElement:
        # The Euler polynomial Σ x_i·F_i(θ) on integers, with F_i(θ) = b^{-i}·a^i: the
        # product is Σ x_i·b^(q-i)·a^i over the product of the factors' clearing scales.
        # It is the tail's times factor 1's Euler factor, as Euler polynomials commute.
        x, den = self._tail_build
        if self.factors:
            x = times_euler_factor(x, *self.euler_factors()[0])
            den *= _clearing_scale(*self.factors[0])
        return _falling_element(x, den)

    def expand_tail(self) -> ABElement:
        """The product of factors[1:], from the build that `expand` steps on."""
        return _falling_element(*self._tail_build)

    def to_json(self) -> list:
        return [[str(e), str(t)] for e, t in self.factors]

    @classmethod
    def from_json(cls, data) -> "HomogChain":
        return cls(tuple((Fraction(e), Fraction(t)) for e, t in data))

    def __str__(self):
        if not self.factors:
            return "1"
        def fac(eta, theta):
            lhs = "a" if eta == 1 else f"{eta}·a"
            if theta == 0:
                return f"({lhs})"
            op = "-" if theta < 0 else "+"
            th = abs(theta)
            rhs = "b" if th == 1 else f"{th}·b"
            return f"({lhs} {op} {rhs})"
        return "".join(fac(e, t) for e, t in self.factors)


def require_homogeneous(p: ABElement) -> int:
    """Return the (a,b)-degree, raising NotHomogeneous otherwise."""
    if p.is_zero():
        raise ZeroElement("zero element")
    if not p.is_homogeneous():
        raise NotHomogeneous(str(p))
    return p.ab_degree
