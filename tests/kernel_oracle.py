"""The product kernel and theta_k of A = C<a,b> (ab - ba = b²) as they were
before packed keys, the weight table and the integer-numerator theta_k, kept as
oracles.

`mul_int` builds each weight step by step inside the term-pair loop and keys
the output by (b_power, a_power) tuples throughout; `theta_k` sums
(a - k·b)^i·b^kk term by term in `ABElement` arithmetic.  Tests compare
`abalgebra._mul_int` and `abalgebra.theta_k` with these.
"""

from __future__ import annotations

from fractions import Fraction

from gaussmanin.abalgebra import ABElement


def mul_int(x: dict, y: dict, trunc: int | None) -> dict:
    """x·y for maps (b_power, a_power) -> int, dropping b-powers >= trunc.

    The one rewrite a·b^k = b^k·a + k·b^(k+1) gives
    b^k1·a^i1 · b^k2·a^i2 = Σ_t C(i1,t)·k2(k2+1)···(k2+t-1)·b^(k1+k2+t)·a^(i1+i2-t),
    whose t-th weight w is the (t-1)-th times (i1-t+1)·(k2+t-1)/t.
    """
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (k1, i1), c1 in x.items():
        for (k2, i2), c2 in y.items():
            k, i, c = k1 + k2, i1 + i2, c1 * c2
            top = i1 if k2 else 0   # b^0 commutes with a
            if trunc is not None:
                top = min(top, trunc - 1 - k)
            w = 1
            for t in range(top + 1):
                if t:
                    w = w * (i1 - t + 1) * (k2 + t - 1) // t
                key = (k + t, i - t)
                out[key] = get(key, 0) + c * w
    return out


def theta_k(p: ABElement, k: int) -> ABElement:
    """The anti-automorphism with theta(a) = a - k·b, theta(b) = -b."""
    if p.trunc is not None:
        raise ValueError("theta_k needs a finite (untruncated) element")
    if not p.num:
        return p
    amax = p.a_degree
    gen = ABElement.linear(Fraction(1), Fraction(-k))  # a - k·b
    powers = [ABElement.one()]
    for _ in range(amax):
        powers.append(gen * powers[-1])
    out = ABElement.zero()
    for (kk, i), c in p.terms.items():
        sign = Fraction(-1) ** kk
        # theta(b^kk·a^i) = theta(a)^i·theta(b)^kk = (a - k·b)^i·(-1)^kk·b^kk,
        # with the b-powers multiplied on the right
        term = powers[i] * ABElement.term(kk, 0) if kk else powers[i]
        out = out + term * (c * sign)
    return out
