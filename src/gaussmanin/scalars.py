"""Exact scalar arithmetic: rationals, Laurent polynomials in lambda,
univariate polynomials over Q, and small exact linear algebra.

Rationals are fractions.Fraction throughout: always reduced, positive
denominator, arbitrary precision.  All values in this module are immutable
and safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InternalError, NotCoprime

Rational = Fraction


# ---------------------------------------------------------------------------
# Laurent polynomials in the symbolic parameter lambda
# ---------------------------------------------------------------------------

class LaurentLambda:
    """Laurent polynomial in lambda with rational coefficients, for input
    and output; negation (perfbench's checks) is its only arithmetic.

    Supports negative exponents (the 61/15 example needs lambda^-61).
    Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def const(cls, value) -> "LaurentLambda":
        return cls.monomial(0, value)

    @classmethod
    def monomial(cls, exponent: int, value=1) -> "LaurentLambda":
        return cls({exponent: Fraction(value)})

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def constant_value(self) -> Fraction:
        """The value as a rational; raises if lambda genuinely appears."""
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) == {0}:
            return self.coeffs[0]
        raise ValueError(f"not a constant: {self}")

    def __neg__(self):
        r = LaurentLambda.__new__(LaurentLambda)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        return r

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return set(self.coeffs) == {0} and self.coeffs[0] == other
        if isinstance(other, LaurentLambda):
            return self.coeffs == other.coeffs
        return NotImplemented

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list:
        return [[e, str(c)] for e, c in sorted(self.coeffs.items())]

    @classmethod
    def from_json(cls, data) -> "LaurentLambda":
        return cls({int(e): Fraction(c) for e, c in data})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}·")
                lam = "λ" if e == 1 else f"λ^{e}"
                parts.append(f"{head}{lam}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s


def as_laurent(x) -> LaurentLambda:
    if isinstance(x, LaurentLambda):
        return x
    return LaurentLambda.const(x)


# ---------------------------------------------------------------------------
# Univariate polynomials, dense, lowest degree first
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial.

    Coefficients are Fractions or LaurentLambdas (one kind per polynomial).
    The leading coefficient is nonzero unless the polynomial is zero.
    Division-based operations require Fraction coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x_power(cls, n: int, c=Fraction(1)) -> "UniPoly":
        return cls((0,) * n + (c,))

    @classmethod
    def from_roots(cls, roots) -> "UniPoly":
        p = cls((Fraction(1),))
        for r in roots:
            p = p * cls((-Fraction(r), Fraction(1)))
        return p

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentLambda)):
            if other == 0:
                return UniPoly()
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        out = UniPoly.const(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def scale(self, c) -> "UniPoly":
        return UniPoly(tuple(x * c for x in self.coeffs))

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        return self.scale(1 / Fraction(self.lead))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact polynomial division over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.lead
        tail = [(i, oc) for i, oc in enumerate(other.coeffs[:-1]) if oc]
        while len(rem) - 1 >= d and rem:
            c = rem[-1] / lead
            k = len(rem) - 1 - d
            q[k] = c
            rem[-1] = 0
            for i, oc in tail:
                rem[k + i] -= c * oc
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(q), UniPoly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k >= 1))

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """self(inner(x)) by Horner."""
        out = UniPoly()
        for c in reversed(self.coeffs):
            out = out * inner + UniPoly.const(c)
        return out

    def map_coeffs(self, fn) -> "UniPoly":
        return UniPoly(tuple(fn(c) for c in self.coeffs))

    def to_rational(self) -> "UniPoly":
        """Coerce constant LaurentLambda coefficients to plain rationals."""
        return UniPoly(tuple(
            c.constant_value() if isinstance(c, LaurentLambda) else Fraction(c)
            for c in self.coeffs))

    # -- io ----------------------------------------------------------------------

    def to_json(self) -> list:
        out = []
        for c in self.coeffs:
            if isinstance(c, LaurentLambda):
                out.append(c.to_json())
            else:
                out.append(str(Fraction(c)))
        return out

    @classmethod
    def from_json(cls, data) -> "UniPoly":
        cs = []
        for c in data:
            if isinstance(c, list):
                cs.append(LaurentLambda.from_json(c))
            else:
                cs.append(Fraction(c))
        return cls(cs)

    def format(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            if isinstance(c, LaurentLambda) and not c.is_constant():
                cs = f"({c})"
            else:
                cv = c.constant_value() if isinstance(c, LaurentLambda) else c
                cs = str(cv)
            if k == 0:
                parts.append(cs)
            else:
                xs = var if k == 1 else f"{var}^{k}"
                parts.append(xs if cs == "1" else (f"-{xs}" if cs == "-1" else f"{cs}·{xs}"))
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"UniPoly({self.coeffs!r})"


# ---------------------------------------------------------------------------
# Bezout cofactors (Fraction coefficients)
# ---------------------------------------------------------------------------

def bezout(u: UniPoly, v: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Cofactors (s, t) with s*u + t*v = 1, deg s < deg v, deg t < deg u.

    Raises NotCoprime when gcd(u, v) != 1.
    """
    if u.is_zero() or v.is_zero():
        raise NotCoprime("zero polynomial")
    r0, r1 = u, v
    s0, s1 = UniPoly.const(Fraction(1)), UniPoly.zero()
    t0, t1 = UniPoly.zero(), UniPoly.const(Fraction(1))
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise NotCoprime(f"gcd has degree {r0.degree}")
    inv = 1 / r0.lead
    s, t = s0.scale(inv), t0.scale(inv)
    # Extended Euclid already yields the minimal-degree cofactors, except in
    # constant corner cases where the bounds are vacuous.
    if v.degree >= 1 and s.degree >= v.degree:
        q, s = s.divmod(v)
        t = t + q * u
    return s, t


# ---------------------------------------------------------------------------
# Factoring over Q: the operator's class x^d·(x^h - w) in closed form,
# every other polynomial by sympy
# ---------------------------------------------------------------------------

def _int_root(n: int, k: int) -> int | None:
    """The integer k-th root of n >= 0 when n is a k-th power, else None."""
    if n < 2:
        return n
    # Newton's iteration falls monotonically to floor(n^(1/k)) from any start
    # above it, here 2^ceil(bits/k)
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


def _rational_root(w: Fraction, k: int) -> Fraction | None:
    """The rational v with v^k = w, positive when k is even, or None."""
    if w < 0 and k % 2 == 0:
        return None
    num, den = _int_root(abs(w.numerator), k), _int_root(w.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num if w > 0 else -num, den)


def _prime_divisors(n: int) -> list[int]:
    """The primes dividing n >= 1, ascending."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _binomial_factors(h: int, w: Fraction) -> list[UniPoly]:
    """The monic irreducible factors of x^h - w over Q, for w != 0."""
    v = _rational_root(w, h)
    if v is not None:
        # x^h - v^h is the product of v^phi(e)·Phi_e(x/v) over e | h
        cyclotomic: dict[int, UniPoly] = {}
        for e in range(1, h + 1):
            if h % e == 0:
                phi = UniPoly.x_power(e) - UniPoly.const(Fraction(1))
                for k, f in cyclotomic.items():
                    if e % k == 0:
                        phi = phi // f
                cyclotomic[e] = phi
        return [UniPoly(c * v ** (f.degree - k) for k, c in enumerate(f.coeffs))
                for f in cyclotomic.values()]
    # Capelli (Lang, Algebra, VI Thm. 9.1): x^h - w is irreducible unless w is
    # a p-th power for a prime p | h, or 4 | h and w is in -4·Q^4
    if all(_rational_root(w, p) is None for p in _prime_divisors(h)) and \
            (h % 4 or _rational_root(-w / 4, 4) is None):
        return [UniPoly.x_power(h) - UniPoly.const(w)]
    if h % 2 == 0 and (v := _rational_root(w, 2)) is not None:
        return _binomial_factors(h // 2, v) + _binomial_factors(h // 2, -v)
    return [f for f, _ in _sympy_factor(UniPoly.x_power(h) - UniPoly.const(w))]


def _sympy_factor(p: UniPoly) -> list[tuple[UniPoly, int]]:
    import sympy  # about 0.3 s and 30 MB, paid only where no closed form applies

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], x)
    return [(UniPoly(Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())).monic(), m)
            for f, m in poly.factor_list()[1]]


def _factor(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """The monic irreducible factors of a nonzero p over Q, with multiplicities."""
    p = p.monic()
    support = [k for k, c in enumerate(p.coeffs) if c]
    if len(support) > 2:
        return _sympy_factor(p)
    d = support[0]
    out = [(UniPoly((Fraction(0), Fraction(1))), d)] if d else []
    if len(support) == 2:
        out += [(f, 1) for f in _binomial_factors(p.degree - d, -p[d])]
    return out


def rational_roots(p: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted ascending."""
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    return sorted((-f[0], m) for f, m in _factor(p) if f.degree == 1)


def coprime_split(p: UniPoly) -> list[UniPoly]:
    """Split a monic polynomial into pairwise-coprime monic factors, each a
    power of a distinct irreducible over Q; their product is p.

    Order: ascending |constant term| of the factor, then coefficients.
    """
    if not p.is_monic():
        raise ValueError("coprime_split needs a monic polynomial")
    pieces = sorted((f ** m for f, m in _factor(p)),
                    key=lambda f: (abs(Fraction(f[0])), tuple(Fraction(c) for c in f.coeffs)))
    if math.prod(pieces, start=UniPoly.const(Fraction(1))) != p:
        raise InternalError("the pieces of coprime_split do not multiply back to p")
    return pieces


# ---------------------------------------------------------------------------
# Small exact linear algebra over Q
# ---------------------------------------------------------------------------

def _row_reduce(rows, extra=None) -> tuple[list[list[Fraction]], int, Fraction]:
    """Gauss-Jordan elimination over Q, pivoting in the columns of rows only.

    Each row is extended by the matching row of extra (if given) before the
    elimination.  Returns the reduced extended matrix, the rank of rows and
    det(rows), which is 0 when rows is singular or not square.
    """
    ncols = len(rows[0]) if rows else 0
    if extra is None:
        extra = [()] * len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in ext]
         for row, ext in zip(rows, extra)]
    rank = 0
    det = Fraction(1)
    for c in range(ncols):
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        pv = m[rank][c]
        det *= pv
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    if not rank == ncols == len(m):
        det = Fraction(0)
    return m, rank, det


def mat_rank(rows: list[list[Fraction]]) -> int:
    return _row_reduce(rows)[1]


def mat_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(rows)
    m, rank, _ = _row_reduce(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    if rank != n:
        raise ValueError("singular matrix")
    return [row[n:] for row in m]


def mat_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square exact linear system."""
    n = len(rows)
    m, rank, _ = _row_reduce(rows, [[v] for v in rhs])
    if rank != n:
        raise ValueError("singular matrix")
    return [m[r][n] for r in range(n)]


def mat_det(rows: list[list[Fraction]]) -> Fraction:
    return _row_reduce(rows)[2]
