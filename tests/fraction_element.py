"""The Fraction-per-term element of A = C<a,b> (ab - ba = b²), kept as an oracle.

This is the storage `FractionElement` had before it kept integer numerators over one
denominator: `terms` maps (b_power, a_power) to a normalized `Fraction`, and
every operation builds one `Fraction` per output term.  Products run on the
same integer kernel `_mul_int`, which `test_abalgebra` checks against a
`Fraction` product of its own.  Tests compare `FractionElement` with this class
operation by operation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gaussmanin.abalgebra import _mul_int
from gaussmanin.errors import MalformedSpec, TruncationTooSmall, ZeroElement
from gaussmanin.scalars import UniPoly

_ZERO = Fraction(0)


def _min_trunc(t1: int | None, t2: int | None) -> int | None:
    if t1 is None:
        return t2
    if t2 is None:
        return t1
    return min(t1, t2)


def _from_numerators(num: dict, den: int, trunc: int | None) -> "FractionElement":
    """The element with terms num/den, zero numerators dropped."""
    return FractionElement._make({key: Fraction(n, den) for key, n in num.items() if n}, trunc)


class FractionElement:
    """Element of A (or of its b-adic truncation A / b^N·A).

    terms maps (b_power, a_power) to a rational coefficient; zero
    coefficients are never stored.  trunc is None for exact elements; a
    truncated element drops every term with b_power >= trunc.  λ never
    enters an element: the operator carries it in the scalar c·λ^r.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms=None, trunc: int | None = None):
        tt: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (k, i), c in terms.items():
                if trunc is not None and k >= trunc:
                    continue
                if not isinstance(c, Fraction):
                    if not isinstance(c, int):
                        raise TypeError(f"coefficient {c!r} is not rational")
                    c = Fraction(c)
                if c:
                    tt[(k, i)] = c
        self.terms = tt
        self.trunc = trunc

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, trunc: int | None = None) -> "FractionElement":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int | None = None) -> "FractionElement":
        return cls({(0, 0): Fraction(1)}, trunc)

    @classmethod
    def a(cls) -> "FractionElement":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def b(cls) -> "FractionElement":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def term(cls, b_power: int, a_power: int, coeff=1, trunc: int | None = None) -> "FractionElement":
        return cls({(b_power, a_power): coeff}, trunc)

    @classmethod
    def linear(cls, eta, theta) -> "FractionElement":
        """eta·a + theta·b."""
        return cls({(0, 1): eta, (1, 0): theta})

    @classmethod
    def from_poly_in_a(cls, p: UniPoly, trunc: int | None = None) -> "FractionElement":
        return cls({(0, i): c for i, c in enumerate(p.coeffs)}, trunc)

    # -- degrees ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def a_degree(self) -> int:
        if not self.terms:
            raise ZeroElement("a_degree of zero")
        return max(i for (_, i) in self.terms)

    @property
    def b_order(self) -> int:
        if not self.terms:
            raise ZeroElement("b_order of zero")
        return min(k for (k, _) in self.terms)

    @property
    def ab_valuation(self) -> int:
        if not self.terms:
            raise ZeroElement("valuation of zero")
        return min(k + i for (k, i) in self.terms)

    @property
    def ab_degree(self) -> int:
        """Total (a,b)-degree; only meaningful for exact (finite) elements."""
        if not self.terms:
            raise ZeroElement("degree of zero")
        return max(k + i for (k, i) in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {k + i for (k, i) in self.terms}
        return len(degs) == 1

    def coeff(self, b_power: int, a_power: int) -> Fraction:
        return self.terms.get((b_power, a_power), _ZERO)

    def a_coefficient(self, a_power: int) -> dict[int, Fraction]:
        """The coefficient of a^i as a map b_power -> coefficient."""
        return {k: c for (k, i), c in self.terms.items() if i == a_power}

    def is_monic_in_a(self) -> bool:
        """Leading a-coefficient is exactly 1 (b-free)."""
        if not self.terms:
            return False
        d = self.a_degree
        col = self.a_coefficient(d)
        return set(col) == {0} and col[0] == 1

    def numerators(self) -> tuple[dict[tuple[int, int], int], int]:
        """(num, den) with terms = num/den, den the lcm of the denominators."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return {key: c.numerator * (den // c.denominator) for key, c in self.terms.items()}, den

    # -- ring operations ---------------------------------------------------------

    @staticmethod
    def _make(terms, trunc) -> "FractionElement":
        e = FractionElement.__new__(FractionElement)
        e.terms = terms
        e.trunc = trunc
        return e

    def __add__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        trunc = _min_trunc(self.trunc, other.trunc)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        if trunc is not None:
            out = {key: c for key, c in out.items() if key[0] < trunc}
        return self._make(out, trunc)

    def __neg__(self):
        return self._make({key: -c for key, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._make({}, self.trunc)
            return self._make({key: v * other for key, v in self.terms.items()}, self.trunc)
        if not isinstance(other, FractionElement):
            return NotImplemented
        trunc = _min_trunc(self.trunc, other.trunc)
        (x, dx), (y, dy) = self.numerators(), other.numerators()
        return _from_numerators(_mul_int(x, y, trunc), dx * dy, trunc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        out = FractionElement.one(self.trunc)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, FractionElement):
            return NotImplemented
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.trunc))

    # -- truncation and gradings ---------------------------------------------------

    def truncate(self, order: int) -> "FractionElement":
        """Drop terms with b_power >= order and mark the element truncated."""
        if order < 1:
            raise TruncationTooSmall(f"truncation order {order} < 1")
        return FractionElement({key: c for key, c in self.terms.items() if key[0] < order},
                         trunc=order)

    def without_trunc_mark(self) -> "FractionElement":
        return self._make(dict(self.terms), None)

    def shift_b(self, q: int) -> "FractionElement":
        """Multiply by b^q on the left (q may be negative if valuations allow)."""
        if q < 0 and any(k + q < 0 for (k, _) in self.terms):
            raise ValueError("negative b-shift below order 0")
        trunc = None if self.trunc is None else self.trunc + q
        return self._make({(k + q, i): c for (k, i), c in self.terms.items()}, trunc)

    def component(self, degree: int) -> "FractionElement":
        """Homogeneous component of the given (a,b)-degree."""
        return self._make(
            {key: c for key, c in self.terms.items() if key[0] + key[1] == degree},
            self.trunc)

    def initial_form(self) -> "FractionElement":
        """The homogeneous component of lowest (a,b)-degree."""
        if not self.terms:
            if self.trunc is not None:
                raise TruncationTooSmall("element vanishes to the stored order")
            raise ZeroElement("initial form of zero")
        v = self.ab_valuation
        if self.trunc is not None and self.trunc <= v:
            raise TruncationTooSmall("truncation hides the initial form")
        return self.component(v).without_trunc_mark()

    def mod_b(self) -> UniPoly:
        """The class modulo b·A as a polynomial in a."""
        if not self.terms:
            return UniPoly()
        d = self.a_degree
        cs = [_ZERO] * (d + 1)
        for (k, i), c in self.terms.items():
            if k == 0:
                cs[i] = c
        return UniPoly(cs)

    # -- io ---------------------------------------------------------------------

    def to_json(self) -> dict:
        # a coefficient is written as the λ-polynomial [[0, "p/q"]]
        terms = [{"b": k, "a": i, "c": [[0, str(c)]]}
                 for (k, i), c in sorted(self.terms.items())]
        return {"trunc": self.trunc, "terms": terms}

    @classmethod
    def from_json(cls, data) -> "FractionElement":
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
        if not self.terms:
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
        return f"FractionElement({self.terms!r}, trunc={self.trunc!r})"
