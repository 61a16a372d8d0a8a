"""Ring arithmetic on Laurent polynomials in λ, for the tests' oracles.

`gaussmanin.scalars.LaurentLambda` is an input/output type: no program path
adds or multiplies its values.  The term-by-term ODE oracle, the Horner
export and the intdep expansion oracle still compute in Q[λ, λ^-1], so the
arithmetic lives here, on a subclass whose results are again `Laurent`.
Mixed operations with a plain `LaurentLambda` work as long as one operand
is a `Laurent`.
"""

from __future__ import annotations

from fractions import Fraction

from gaussmanin.scalars import LaurentLambda


class Laurent(LaurentLambda):
    __slots__ = ()

    @staticmethod
    def _coerce(other):
        if isinstance(other, Laurent):
            return other
        if isinstance(other, LaurentLambda):
            return Laurent(other.coeffs)
        if isinstance(other, (int, Fraction)):
            return Laurent.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return Laurent(out)

    __rmul__ = __mul__

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"Laurent({self.coeffs!r})"


def laurent(x) -> Laurent:
    """x as a Laurent: a LaurentLambda, int or Fraction."""
    return Laurent._coerce(x)
