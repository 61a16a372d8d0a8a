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
    """x_i^k on every row of x for each (i, k) in powers, as (rows, real parts,
    imaginary parts).

    np.power on a column gives the bits of numpy's scalar power on each
    element: for k >= 100 CPython's complex ** k takes another algorithm and
    can differ in the last bit.
    """
    table = [np.power(x[:, i], k) for i, k in powers]
    return len(x), [t.real for t in table], [t.imag for t in table]


def _evaluate(term_list, table):
    """Sum of c·x_i^k·... over a compiled term list on every row of the table.

    Real and imaginary parts are summed as Python complex arithmetic does it,
    in list and variable order: (a·b).real = ar·br − ai·bi and
    (a·b).imag = ar·bi + ai·br, every product and sum rounded on its own.
    """
    rows, re, im = table
    out_r, out_i = np.zeros(rows), np.zeros(rows)
    for c, factors in term_list:
        vr, vi = c.real, c.imag
        for j in factors:
            vr, vi = vr * re[j] - vi * im[j], vr * im[j] + vi * re[j]
        out_r += vr
        out_i += vi
    return out_r, out_i


def _solve(H, rhs):
    """The Newton steps H⁻¹·rhs row by row, and the mask of the singular rows.

    One stacked solve still runs LAPACK once per matrix, but it raises for the
    whole batch when any matrix is singular; then the rows are solved one by one.
    """
    try:
        return np.linalg.solve(H, rhs[..., None])[..., 0], np.zeros(len(H), bool)
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(rhs)
    singular = np.zeros(len(H), bool)
    for j in range(len(H)):
        try:
            step[j] = np.linalg.solve(H[j], rhs[j])
        except np.linalg.LinAlgError:
            singular[j] = True
    return step, singular


def _scale(x_max: float, p: int) -> float:
    """max(1, x_max^p), or inf when x_max^p is beyond the float range."""
    try:
        return max(1.0, x_max ** p)
    except OverflowError:
        return math.inf


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
    converged with a residual below keep, in start order, and their number.
    All live starts step together as the rows of one array; each step
    evaluates the gradient and the Hessian from one table of the powers x_i^k
    that their terms use, and a row leaves once it converged or diverged.
    """
    max_deg = max(sum(e) for _, e in terms)
    p = max(1, max_deg - 1)
    grad_terms = _gradient_terms(terms, n)
    hess_terms = [(i, k, t) for i, g in enumerate(grad_terms)
                  for k, t in enumerate(_gradient_terms(g, n)) if t]   # nonzero entries
    compiled, powers = _compile(grad_terms + [t for _, _, t in hess_terms])
    grad = compiled[:n]
    hess = [(i, k, t) for (i, k, _), t in zip(hess_terms, compiled[n:])]
    (f_terms,), f_powers = _compile([terms])

    # one draw of n real and then n imaginary parts per start, in start order
    u = np.random.default_rng(seed).uniform(-1, 1, (n_starts, 2, n))
    radius = np.resize((0.5, 1.0, 2.0, 4.0), n_starts)[:, None]
    x = radius * (u[:, 0] + 1j * u[:, 1])
    start = np.arange(n_starts)
    x_max = np.abs(x).max(axis=1)
    found = []   # (start, x, scaled residual) of the rows that converged
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(80):
            table = _power_table(x, powers)
            g = np.empty(x.shape, complex)
            for i, t in enumerate(grad):
                g.real[:, i], g.imag[:, i] = _evaluate(t, table)
            scale = np.array([_scale(v, p) for v in x_max.tolist()])
            in_range = scale < math.inf   # else |x|^(deg-1) overflowed: diverged
            g_max = np.abs(g).max(axis=1)
            done = in_range & (g_max <= 1e-13 * scale)
            found.append((start[done], x[done], g_max[done] / scale[done]))
            live = in_range & ~done
            H = np.zeros((len(x), n, n), complex)
            for i, k, t in hess:
                H.real[:, i, k], H.imag[:, i, k] = _evaluate(t, table)
            step, singular = _solve(H[live], -g[live])
            start, x = start[live], x[live] + step
            x_max = np.abs(x).max(axis=1)
            live = ~singular & np.isfinite(x.view(float)).all(axis=1) & (x_max <= 1e8)
            start, x, x_max = start[live], x[live], x_max[live]
            if not len(x):
                break
        start, x, residual = (np.concatenate(a) for a in zip(*found))
        kept = np.flatnonzero(residual < keep)
        kept = kept[np.argsort(start[kept])]
        re, im = _evaluate(f_terms, _power_table(x[kept], f_powers))
    raw_values = [(complex(a, b), r) for a, b, r
                  in zip(re.tolist(), im.tolist(), residual[kept].tolist())]
    return raw_values, len(raw_values)


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
    predicted = _predicted_roots(rel.h, _singular_value_target(rel, lam))
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
    w = _singular_value_target(rel, report.lambda_value)
    return not any(_equation_fails(s, rel.h, w, tol) for s, _ in report.found_values)


def _singular_value_target(rel, lam: complex) -> complex:
    """w = c·λ^r as a complex float; PreconditionError when it is not finite."""
    try:
        w = complex(rel.c) * lam ** rel.r
    except OverflowError:
        w = complex(math.inf)
    if not cmath.isfinite(w):
        raise PreconditionError(f"c·λ^{rel.r} at λ = {lam} is beyond the float range; "
                                f"choose a λ of smaller modulus")
    return w


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
