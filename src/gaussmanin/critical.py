"""Floating-point cross-check of the singular-value equation s^h = c·λ^r.

Newton iteration on the gradient system ∇f = 0 from random complex starts;
every nonzero critical value found must satisfy the predicted equation.
This module never feeds back into the exact computations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .engine import PolySpec, analyze
from .errors import LambdaZero, PreconditionError


@dataclass(frozen=True)
class CriticalReport:
    lambda_value: complex
    found_values: tuple[tuple[complex, float], ...]   # (critical value, scaled residual)
    predicted: tuple[complex, ...]                    # roots of s^h = c·λ^r
    max_mismatch: float
    n_starts: int
    n_converged: int

    def to_json(self) -> dict:
        return {
            "lambda": [self.lambda_value.real, self.lambda_value.imag],
            "found_values": [
                {"value": [v.real, v.imag], "residual": res}
                for v, res in self.found_values
            ],
            "predicted": [[p.real, p.imag] for p in self.predicted],
            "max_mismatch": self.max_mismatch,
            "n_starts": self.n_starts,
            "n_converged": self.n_converged,
        }

    @classmethod
    def from_json(cls, data) -> "CriticalReport":
        return cls(
            lambda_value=complex(*data["lambda"]),
            found_values=tuple((complex(*t["value"]), float(t["residual"]))
                               for t in data["found_values"]),
            predicted=tuple(complex(*p) for p in data["predicted"]),
            max_mismatch=float(data["max_mismatch"]),
            n_starts=int(data["n_starts"]),
            n_converged=int(data["n_converged"]),
        )

    def table_lines(self) -> list[str]:
        lines = [f"lambda = {self.lambda_value}",
                 f"starts: {self.n_starts}, converged: {self.n_converged}",
                 "predicted nonzero singular values:"]
        for p in self.predicted:
            lines.append(f"    {p:.12g}")
        if self.found_values:
            lines.append("critical values found (nonzero):")
            for v, res in self.found_values:
                lines.append(f"    {v:.12g}   (residual {res:.2e})")
        else:
            lines.append("no nonzero critical values found")
        lines.append(f"max mismatch against prediction: {self.max_mismatch:.3e}")
        return lines


def _monomial_terms(spec: PolySpec, lam: complex):
    """Terms of f as (coefficient, exponent tuple)."""
    terms = [(1.0 + 0.0j, m) for m in spec.monomials]
    terms.append((complex(lam), spec.lambda_monomial))
    return terms


def _gradient_terms(terms, n):
    grad = []
    for i in range(n):
        g = []
        for c, e in terms:
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                g.append((c * e[i], tuple(e2)))
        grad.append(g)
    return grad


def _compile(term_lists):
    """Each term list as (c, indices) pairs, with the indices pointing into the
    returned list of the (variable, exponent >= 1) powers that the lists use,
    in variable order within each term."""
    powers: dict[tuple[int, int], int] = {}
    compiled = [[(c, tuple(powers.setdefault((i, k), len(powers))
                           for i, k in enumerate(e) if k)) for c, e in terms]
                for terms in term_lists]
    return compiled, list(powers)


def _power_table(x, powers):
    """x_i^k for every (i, k) in powers, as Python complex.

    Each power is numpy's scalar power on the complex128 element: for k >= 100
    CPython's complex ** k takes another algorithm and can differ in the last bit.
    """
    xs = list(x)
    return [complex(xs[i] ** k) for i, k in powers]


def _evaluate(term_list, table):
    """Sum of c·x_i^k·... over a compiled term list, in list and variable order."""
    out = 0j
    for c, factors in term_list:
        v = c
        for j in factors:
            v *= table[j]
        out += v
    return out


def _predicted_roots(h: int, w: complex) -> tuple[complex, ...]:
    if w == 0:
        return ()
    mag = abs(w) ** (1.0 / h)
    arg = cmath.phase(w)
    return tuple(mag * cmath.exp(1j * (arg + 2 * cmath.pi * k) / h)
                 for k in range(h))


def _newton_search(terms, n: int, n_starts: int, keep: float, seed: int):
    """Newton's method on ∇f = 0 from n_starts random starts.

    Returns the (critical value, scaled residual) pairs of the starts that
    converged with a residual below keep, and their number.  Every step
    evaluates the gradient and the Hessian from one table of the powers
    x_i^k that their terms use.
    """
    max_deg = max(sum(e) for _, e in terms)
    grad_terms = _gradient_terms(terms, n)
    hess_terms = [(i, k, t) for i, g in enumerate(grad_terms)
                  for k, t in enumerate(_gradient_terms(g, n)) if t]   # nonzero entries
    compiled, powers = _compile(grad_terms + [t for _, _, t in hess_terms])
    grad = compiled[:n]
    hess = [(i, k, t) for (i, k, _), t in zip(hess_terms, compiled[n:])]
    (f_terms,), f_powers = _compile([terms])

    rng = np.random.default_rng(seed)
    scales = (0.5, 1.0, 2.0, 4.0)
    raw_values = []
    n_converged = 0
    for start in range(n_starts):
        radius = scales[start % len(scales)]
        x = radius * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        x_max = np.abs(x).max()
        ok = False
        for _ in range(80):
            table = _power_table(x, powers)
            g = np.array([_evaluate(gi, table) for gi in grad])
            try:
                scale = max(1.0, float(x_max) ** max(1, max_deg - 1))
            except OverflowError:
                break   # |x|^(deg-1) beyond the float range: the start diverged
            g_max = np.abs(g).max()
            if g_max <= 1e-13 * scale:
                ok = True
                break
            H = [[0j] * n for _ in range(n)]
            for i, k, t in hess:
                H[i][k] = _evaluate(t, table)
            try:
                step = np.linalg.solve(np.array(H), -g)
            except np.linalg.LinAlgError:
                break
            x = x + step
            if not np.isfinite(x.view(float)).all():
                break
            x_max = np.abs(x).max()
            if x_max > 1e8:
                break
        if not ok:
            continue
        residual = float(g_max) / scale   # g and scale were taken at x
        if residual < keep:
            n_converged += 1
            raw_values.append((_evaluate(f_terms, _power_table(x, f_powers)), residual))
    return raw_values, n_converged


def critical_values(spec: PolySpec, lambda_value: complex, n_starts: int = 200,
                    tol: float = 1e-9, seed: int = 0) -> CriticalReport:
    """Search for critical points of f by Newton iteration on ∇f = 0.

    Starts are drawn from polydiscs of a few radii (the critical points of
    interest need not sit in the unit polydisc).  Converged points are kept
    when the scaled gradient residual is below min(1e-9, tol); values below
    1e-8 in modulus count as the zero critical value and are dropped.
    Needs n_starts >= 1 and a finite tol > 0, so an empty search cannot pass.
    """
    lam = complex(lambda_value)
    if lam == 0:
        raise LambdaZero("lambda must be nonzero")
    if n_starts < 1:
        raise PreconditionError(f"need at least one Newton start, got {n_starts}")
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tolerance must be a finite positive number, got {tol}")
    rel = analyze(spec)
    raw_values, n_converged = _newton_search(
        _monomial_terms(spec, lam), spec.n_vars, n_starts, min(1e-9, tol), seed)

    # deterministic merge: sort, cluster values closer than an 1e-8 blend
    raw_values.sort(key=lambda t: (round(t[0].real, 12), round(t[0].imag, 12)))
    values: list[tuple[complex, float]] = []
    for v, res in raw_values:
        if abs(v) <= 1e-8:
            continue   # zero critical value (possibly a positive-dimensional locus)
        merged = False
        for k, (w, wres) in enumerate(values):
            if abs(v - w) <= 1e-8 * max(1.0, abs(w)):
                values[k] = (w, min(res, wres))
                merged = True
                break
        if not merged:
            values.append((v, res))

    w = complex(rel.c) * lam ** rel.r
    predicted = _predicted_roots(rel.h, w)
    mismatch = 0.0
    for v, _ in values:
        best = min((abs(v - p) / max(1.0, abs(p)) for p in predicted), default=float("inf"))
        mismatch = max(mismatch, best)
    return CriticalReport(
        lambda_value=lam,
        found_values=tuple(values),
        predicted=predicted,
        max_mismatch=mismatch,
        n_starts=n_starts,
        n_converged=n_converged,
    )


def equation_holds(spec: PolySpec, report: CriticalReport, tol: float = 1e-9) -> bool:
    """True iff every nonzero critical value s in the report satisfies
    |s^h - c·λ^r| < tol·max(1, |s|^h)."""
    rel = analyze(spec)
    w = complex(rel.c) * report.lambda_value ** rel.r
    return not any(_equation_fails(s, rel.h, w, tol) for s, _ in report.found_values)


def _equation_fails(s: complex, h: int, w: complex, tol: float) -> bool:
    try:
        return abs(s ** h - w) >= tol * max(1.0, abs(s) ** h)
    except OverflowError:
        return True   # |s|^h beyond the float range: far from every root of s^h = w


def check_singular_equation(spec: PolySpec, lambda_value: complex,
                            tol: float = 1e-9, n_starts: int = 200,
                            seed: int = 0) -> bool:
    """Run the Newton search and check its values with `equation_holds`."""
    report = critical_values(spec, lambda_value, n_starts=n_starts, tol=tol, seed=seed)
    return equation_holds(spec, report, tol)
