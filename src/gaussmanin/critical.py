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


def _eval_terms(term_list, x):
    out = 0.0 + 0.0j
    for c, e in term_list:
        v = c
        for xi, ei in zip(x, e):
            if ei:
                v *= xi ** ei
        out += v
    return out


def _predicted_roots(h: int, w: complex) -> tuple[complex, ...]:
    if w == 0:
        return ()
    mag = abs(w) ** (1.0 / h)
    arg = cmath.phase(w)
    return tuple(mag * cmath.exp(1j * (arg + 2 * cmath.pi * k) / h)
                 for k in range(h))


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
    keep = min(1e-9, tol)
    rel = analyze(spec)
    n = spec.n_vars
    terms = _monomial_terms(spec, lam)
    grad = _gradient_terms(terms, n)
    hess = [_gradient_terms(g, n) for g in grad]
    max_deg = max(sum(e) for _, e in terms)

    rng = np.random.default_rng(seed)
    scales = (0.5, 1.0, 2.0, 4.0)
    raw_values = []
    n_converged = 0
    for start in range(n_starts):
        radius = scales[start % len(scales)]
        x = radius * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        ok = False
        for _ in range(80):
            g = np.array([_eval_terms(gi, x) for gi in grad])
            scale = max(1.0, float(np.max(np.abs(x))) ** max(1, max_deg - 1))
            if np.max(np.abs(g)) <= 1e-13 * scale:
                ok = True
                break
            H = np.array([[_eval_terms(hess[i][k], x) for k in range(n)]
                          for i in range(n)])
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            x = x + step
            if not np.all(np.isfinite(x.view(float))) or np.max(np.abs(x)) > 1e8:
                break
        if not ok:
            continue
        residual = float(np.max(np.abs(g))) / scale   # g and scale were taken at x
        if residual < keep:
            n_converged += 1
            raw_values.append((complex(_eval_terms(terms, x)), residual))

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
    return not any(abs(s ** rel.h - w) >= tol * max(1.0, abs(s) ** rel.h)
                   for s, _ in report.found_values)


def check_singular_equation(spec: PolySpec, lambda_value: complex,
                            tol: float = 1e-9, n_starts: int = 200,
                            seed: int = 0) -> bool:
    """Run the Newton search and check its values with `equation_holds`."""
    report = critical_values(spec, lambda_value, n_starts=n_starts, tol=tol, seed=seed)
    return equation_holds(spec, report, tol)
