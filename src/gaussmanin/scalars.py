"""Exact scalar arithmetic: rationals, Laurent polynomials in lambda,
univariate polynomials over Q, and small exact linear algebra.

Rationals are fractions.Fraction throughout: always reduced, positive
denominator, arbitrary precision.  All values in this module are immutable
and safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InternalError, NotCoprime

Rational = Fraction


# ---------------------------------------------------------------------------
# Laurent polynomials in the symbolic parameter lambda
# ---------------------------------------------------------------------------

class LaurentLambda:
    """Laurent polynomial in lambda with rational coefficients.

    Supports negative exponents (the 61/15 example needs lambda^-61).
    Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        if coeffs:
            self.coeffs = {e: c for e, c in coeffs.items() if c != 0}
        else:
            self.coeffs = {}

    @classmethod
    def const(cls, value) -> "LaurentLambda":
        v = Fraction(value)
        ll = cls.__new__(cls)
        ll.coeffs = {0: v} if v else {}
        return ll

    @classmethod
    def monomial(cls, exponent: int, value=1) -> "LaurentLambda":
        v = Fraction(value)
        ll = cls.__new__(cls)
        ll.coeffs = {exponent: v} if v else {}
        return ll

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

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentLambda):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentLambda.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        r = LaurentLambda.__new__(LaurentLambda)
        r.coeffs = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentLambda.__new__(LaurentLambda)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        return r

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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _LL_ZERO
        if len(a) == 1 and len(b) == 1:
            (ea, ca), = a.items()
            (eb, cb), = b.items()
            r = LaurentLambda.__new__(LaurentLambda)
            r.coeffs = {ea + eb: ca * cb}
            return r
        out: dict[int, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e)
                p = ca * cb
                s = p if s is None else s + p
                out[e] = s
        out = {e: c for e, c in out.items() if c}
        r = LaurentLambda.__new__(LaurentLambda)
        r.coeffs = out
        return r

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return set(self.coeffs) == {0} and self.coeffs[0] == other
        if isinstance(other, LaurentLambda):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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

    def __repr__(self):
        return f"LaurentLambda({self.coeffs!r})"


_LL_ZERO = LaurentLambda.const(0)


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
        while len(rem) - 1 >= d and rem:
            c = rem[-1] / lead
            k = len(rem) - 1 - d
            q[k] = c
            for i, oc in enumerate(other.coeffs):
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
# gcd, Bezout, squarefree decomposition (Fraction coefficients)
# ---------------------------------------------------------------------------

def poly_gcd(u: UniPoly, v: UniPoly) -> UniPoly:
    """Monic gcd over Q, by Euclid on primitive integer remainders."""
    a, b = u, v
    while not b.is_zero():
        r = a % b
        a, b = b, UniPoly(map(Fraction, _to_int_poly(r))) if r else r
    return a.monic()


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


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: [(g, m)] with p = lead * prod g^m, g monic squarefree,
    pairwise coprime, multiplicities m strictly increasing."""
    p = p.monic()
    out: list[tuple[UniPoly, int]] = []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p // a
    c = dp // a
    m = 1
    while b.degree >= 1:
        d = c - b.derivative()
        g = poly_gcd(b, d)
        if g.degree >= 1:
            out.append((g, m))
        b = b // g
        c = d // g
        m += 1
    return out


# ---------------------------------------------------------------------------
# Rational roots via modular lifting and rational reconstruction
# ---------------------------------------------------------------------------

# Probed first: 5011 (lambda = 1) and 4111 (lambda = 2) certify e61's class
# a^15 - c irreducible; at lambda = 1 consecutive primes first do so at 4441.
_ROOT_PRIMES = (4099, 4111, 4127, 4129, 4133, 4139, 4153, 4157, 5003, 5009,
                5011, 5021, 5023, 5039, 5051, 5059, 6007, 6011, 6029, 6037)


def _to_int_poly(p: UniPoly) -> list[int]:
    den = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    ints = [int(Fraction(c) * den) for c in p.coeffs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def _fp_eval(coeffs: list[int], x: int, p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % p
    return out


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        c = a[-1] * inv % p
        k = len(a) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] = (a[k + i] - c * bc) % p
        _fp_trim(a)
    return q, a


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _fp_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                out[i + j] = (out[i + j] + ac * bc) % p
    return _fp_divmod(_fp_trim(out), mod, p)[1]


def _rational_reconstruct(r: int, m: int, num_bound: int, den_bound: int) -> Fraction | None:
    """Find p/q = r mod m with |p| <= num_bound, 0 < q <= den_bound."""
    v0, v1 = (m, 0), (r % m, 1)
    while v1[0] > num_bound:
        q = v0[0] // v1[0]
        v0, v1 = v1, (v0[0] - q * v1[0], v0[1] - q * v1[1])
    num, den = v1[0], v1[1]
    if den == 0 or abs(den) > den_bound:
        return None
    if den < 0:
        num, den = -num, -den
    if math.gcd(abs(num), den) != 1:
        return None
    return Fraction(num, den)


def _good_primes(g: list[int]):
    """Yield (p, g mod p) for the primes p that divide neither the leading
    coefficient of the squarefree integer polynomial g nor its discriminant:
    the _ROOT_PRIMES table first, then every larger prime.  Only finitely
    many primes are skipped, so the stream never runs dry."""
    later = (n for n in itertools.count(_ROOT_PRIMES[-1] + 2, 2)
             if all(n % q for q in range(3, math.isqrt(n) + 1, 2)))
    for prime in itertools.chain(_ROOT_PRIMES, later):
        if g[-1] % prime == 0:
            continue
        gp = [c % prime for c in g]
        dgp = _fp_trim([c * k % prime for k, c in enumerate(gp) if k >= 1])
        if len(_fp_gcd(gp, dgp, prime)) == 1:
            yield prime, gp


def _squarefree_roots(g: UniPoly) -> list[Fraction]:
    """The rational roots of a squarefree polynomial over Q, ascending.

    Each root modulo one good prime is Newton-lifted until the modulus
    exceeds the reconstruction bounds, reconstructed as a fraction and kept
    if it divides g exactly, so huge integer coefficients stay cheap.
    """
    roots = []
    if g[0] == 0:
        roots.append(Fraction(0))
        g = UniPoly(g.coeffs[1:])
    if g.degree == 1:
        roots.append(-Fraction(g[0]) / Fraction(g[1]))
    elif g.degree > 1:
        ints = _to_int_poly(g)
        dints = [c * k for k, c in enumerate(ints) if k >= 1]
        num_bound, den_bound = abs(ints[0]), abs(ints[-1])
        target = 2 * num_bound * den_bound + 1
        prime, gp = next(_good_primes(ints))
        for r in range(prime):
            if _fp_eval(gp, r, prime):
                continue
            m = prime
            while m < target:
                # g' is a unit at a simple root, so each step squares the modulus
                m = m * m
                r = (r - _fp_eval(ints, r, m) * pow(_fp_eval(dints, r, m), -1, m)) % m
            root = _rational_reconstruct(r, m, num_bound, den_bound)
            if root is not None and (g % UniPoly((-root, Fraction(1)))).is_zero():
                roots.append(root)
    return sorted(roots)


def rational_roots(p: UniPoly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted ascending."""
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    return sorted((root, m) for g, m in squarefree_decomposition(p)
                  for root in _squarefree_roots(g))


# ---------------------------------------------------------------------------
# Coprime splitting into powers of distinct irreducibles
# ---------------------------------------------------------------------------

def _is_irreducible_mod_p(gp: list[int], prime: int) -> bool:
    """Distinct-degree certificate for g mod p, squarefree of full degree:
    g irreducible over F_p implies g irreducible over Q."""
    deg = len(gp) - 1
    h = _fp_divmod([0, 1], gp, prime)[1]  # x mod g
    for _ in range(deg // 2):
        # h <- h^p mod g (iterated Frobenius)
        hp = [1]
        base, e = h, prime
        while e:
            if e & 1:
                hp = _fp_mulmod(hp, base, gp, prime)
            base = _fp_mulmod(base, base, gp, prime)
            e >>= 1
        h = hp
        probe = list(h)
        if len(probe) < 2:
            probe = probe + [0]
        probe[1] = (probe[1] - 1) % prime
        if len(_fp_gcd(gp, _fp_trim(probe), prime)) != 1:
            return False
    return True


def _certified_irreducible_factors(g: UniPoly) -> list[UniPoly]:
    """Split a monic squarefree polynomial with no rational roots into monic
    irreducible factors over Q."""
    if g.degree <= 3:
        # no rational roots and degree <= 3 means irreducible
        return [g]
    for prime, gp in itertools.islice(_good_primes(_to_int_poly(g)), len(_ROOT_PRIMES)):
        if _is_irreducible_mod_p(gp, prime):
            return [g]
    # reducible mod every probed prime: fall back to a full factorization
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(Fraction(c)) * x ** k for k, c in enumerate(g.coeffs))
    _, factors = sympy.Poly(expr, x).factor_list()
    out = []
    for fac, mult in factors:
        if mult != 1:
            raise InternalError(f"a squarefree polynomial has a repeated factor: {g}")
        cs = [Fraction(str(c)) for c in reversed(sympy.Poly(fac, x).all_coeffs())]
        out.append(UniPoly(cs).monic())
    return out


def coprime_split(p: UniPoly) -> list[UniPoly]:
    """Split a monic polynomial into pairwise-coprime monic factors, each a
    power of a distinct irreducible over Q; their product is p.

    Order: ascending |constant term| of the factor, then coefficients.
    """
    if not p.is_monic():
        raise ValueError("coprime_split needs a monic polynomial")
    pieces: list[UniPoly] = []
    for g, m in squarefree_decomposition(p):
        rest = g
        for root in _squarefree_roots(g):
            lin = UniPoly((-root, Fraction(1)))
            pieces.append(lin ** m)
            rest = rest // lin
        if rest.degree >= 1:
            for irr in _certified_irreducible_factors(rest):
                pieces.append(irr ** m)

    def key(f: UniPoly):
        return (abs(Fraction(f[0])), tuple(Fraction(c) for c in f.coeffs))

    pieces.sort(key=key)
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
