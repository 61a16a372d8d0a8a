"""Output checks, run after timing and outside the timed region.

`check_job` returns (ok, reason).  Jobs on shipped specs must print exactly
the stdout recorded in reference.json.  The seed-independent checks compare
every job against `oracle`, the closed-form data of the paper computed here
from the exponent matrix alone, and re-read JSON outputs with gaussmanin's
`from_json` constructors.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

from gaussmanin.abalgebra import ABElement
from gaussmanin.engine import GMOperator, PolySpec, build_operator
from gaussmanin.factor import IrregularSplit, PipelineReport
from gaussmanin.ode import DiffOp
from gaussmanin.scalars import LaurentLambda, as_laurent

# constants stated in the paper and README, checked against the oracle too
PAPER_C = {
    "specs/e61.json": Fraction(-61**61 * 15**15, 34**34 * 22**22 * 20**20),
    "specs/quintic.json": Fraction(1, 3125),
    "specs/e2.json": Fraction(-1, 432),
}
PAPER_DHR = {"specs/e61.json": (61, 15, -61)}

PRIME = 2**61 - 1


class CheckFailed(Exception):
    pass


def require(cond, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


# ---------------------------------------------------------------------------
# oracle: d, h, r and c from the exponent matrix
# ---------------------------------------------------------------------------

def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def oracle(spec_path: str) -> dict:
    """d, h, r, c, Δ, δ of the relation m^Δ = λ^r·m^δ, and the columns."""
    data = json.loads(Path(spec_path).read_text())
    units = [tuple(int(e) for e in m) for m in data["monomials"]]
    lam = tuple(int(e) for e in data["lambda_monomial"])
    n = len(lam)
    a = [[Fraction(units[j][i]) for j in range(n)] for i in range(n)]
    rho = _solve(a, [Fraction(e) for e in lam])
    r_abs = lcm(*(x.denominator for x in rho))
    p = [int(x * r_abs) for x in rho]
    side_lambda = r_abs + sum(-x for x in p if x < 0)
    side_plus = sum(x for x in p if x > 0)
    vec_lambda = [-x if x < 0 else 0 for x in p] + [r_abs]
    vec_plus = [x if x > 0 else 0 for x in p] + [0]
    if side_lambda > side_plus:
        big, small = vec_lambda, vec_plus
    else:
        big, small = vec_plus, vec_lambda
    cols = units + [lam]
    mt = [[Fraction(1)] * (n + 1)] + [[Fraction(col[i]) for col in cols] for i in range(n)]
    eta = _solve(mt, [Fraction(1)] + [Fraction(0)] * n)
    c = Fraction(1)
    for j in range(n + 1):
        c *= eta[j] ** small[j] / eta[j] ** big[j]
    d, dh = sum(small), sum(big)
    out = {"d": d, "h": dh - d, "r": big[-1] - small[-1], "c": c,
           "Delta": big, "delta": small, "cols": cols}
    if spec_path in PAPER_C:
        require(c == PAPER_C[spec_path], f"oracle c {c} disagrees with the paper")
    if spec_path in PAPER_DHR:
        require((d, dh - d, out["r"]) == PAPER_DHR[spec_path], "oracle d, h, r disagree with the paper")
    return out


def lambda_str(r: int) -> str:
    return "λ" if r == 1 else f"λ^{r}"


# ---------------------------------------------------------------------------
# relation evaluation at a random point modulo a prime
# ---------------------------------------------------------------------------

def _mod(x: Fraction) -> int:
    den = x.denominator % PRIME
    require(den != 0, "denominator vanishes at the check prime")
    return x.numerator * pow(den, -1, PRIME) % PRIME


def point_values(o: dict, rng: random.Random) -> tuple[int, int, list[int]]:
    """λ, f(x) and u_i(x) = x_i·∂f/∂x_i at a random point, mod PRIME."""
    cols = o["cols"]
    n = len(cols) - 1
    lam = rng.randrange(2, PRIME)
    x = [rng.randrange(2, PRIME) for _ in range(n)]
    terms = []
    for j, col in enumerate(cols):
        v = lam if j == n else 1
        for xi, e in zip(x, col):
            v = v * pow(xi, e, PRIME) % PRIME
        terms.append(v)
    f = sum(terms) % PRIME
    u = [sum(col[i] * t for col, t in zip(cols, terms)) % PRIME for i in range(n)]
    return lam, f, u


def _laurent_at(coeffs, lam: int) -> int:
    total = 0
    for e, c in coeffs:
        total += _mod(Fraction(c)) * pow(lam, int(e), PRIME)
    return total % PRIME


def check_relation_json(data: dict, o: dict, rng: random.Random) -> None:
    lam, f, u = point_values(o, rng)
    total = 0
    for entry in data["coefficients"]:
        fk = pow(f, entry["f_power"], PRIME)
        for term in entry["terms"]:
            mono = 1
            for ui, e in zip(u, term["u"]):
                if e:
                    mono = mono * pow(ui, e, PRIME) % PRIME
            total += _laurent_at(term["c"], lam) * mono * fk
    require(total % PRIME == 0, "relation does not vanish at a random point")


_FACTOR = re.compile(r"\(([^()]*)\)\^(\d+)")


def _linear_at(expr: str, f: int, u: list[int]) -> int:
    values = {"f": f, **{f"u{i}": v for i, v in enumerate(u)}}
    total = 0
    for term in expr.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coef, _, name = term.rpartition("·")
        total += sign * _mod(Fraction(coef or 1)) * values[name]
    return total % PRIME


def check_relation_text(line: str, o: dict, rng: random.Random) -> None:
    m = re.fullmatch(r"(.*) - λ(?:\^(-?\d+))?·(.*) = 0", line)
    require(m is not None, "factored relation line not recognized")
    require(int(m.group(2) or 1) == o["r"], "λ exponent of the factored relation")
    lam, f, u = point_values(o, rng)

    def side(text):
        out = 1
        for expr, k in _FACTOR.findall(text):
            out = out * pow(_linear_at(expr, f, u), int(k), PRIME) % PRIME
        return out

    value = side(m.group(1)) - pow(lam, o["r"], PRIME) * side(m.group(3))
    require(value % PRIME == 0, "factored relation does not vanish at a random point")


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------

def _expected_rhs(o: dict) -> LaurentLambda:
    return LaurentLambda.monomial(o["r"], o["c"])


def _check_analysis(values: dict, o: dict) -> None:
    require((int(values["d"]), int(values["h"]), int(values["r"])) == (o["d"], o["h"], o["r"]),
            "d, h, r differ from the closed form")
    require(Fraction(values["c"]) == o["c"], "c differs from the closed form")


def _analyze_text_values(lines: list[str]) -> dict:
    out = {}
    for line in lines:
        m = re.fullmatch(r"d = (\d+)   h = (\d+)   r = (-?\d+)", line)
        if m:
            out.update(d=m.group(1), h=m.group(2), r=m.group(3))
        if line.startswith("c = "):
            out["c"] = line[4:]
    require(set(out) == {"d", "h", "r", "c"}, "analyze text lacks d, h, r or c")
    return out


def check_analyze_batch(text: str, job: dict) -> None:
    files = sorted(Path(job["spec"]).glob("*.json"))
    if "json" in job["argv"]:
        decoder, pos, seen = json.JSONDecoder(), 0, []
        while pos < len(text.strip()):
            obj, end = decoder.raw_decode(text, pos)
            _check_analysis(obj, oracle(obj["file"]))
            seen.append(obj["file"])
            pos = end + 1
    else:
        seen = []
        blocks = text.split("== ")[1:]
        for block in blocks:
            lines = block.splitlines()
            seen.append(lines[0])
            _check_analysis(_analyze_text_values(lines[1:]), oracle(lines[0]))
    require(seen == [str(p) for p in files], "batch output does not cover every spec file")


def check_kind(job: dict, out: str, err: str, rng: random.Random) -> None:
    kind = job["check"]
    lines = out.splitlines()
    if kind == "reject":
        require(out == "", "rejected input printed to stdout")
        require(len(err.strip().splitlines()) == 1, "rejection is not one line on stderr")
        require("Traceback" not in err, "rejection shows a traceback")
        return
    if kind == "selftest":
        require(lines and all(line.startswith("PASS") for line in lines), "selftest suite failed")
        return
    if kind == "analyze_batch":
        check_analyze_batch(out, job)
        return
    if kind.startswith("critical"):
        if kind == "critical_json":
            require(json.loads(out)["equation_satisfied"] is True, "equation not satisfied")
        else:
            require(lines[-1] == "singular-value equation satisfied: yes", "equation not satisfied")
        return
    if kind == "split_json":
        split = IrregularSplit.from_json(json.loads(out))
        p = ABElement.from_json(json.loads(Path(job["input"]).read_text()))
        order = job["order"]
        require((split.left * split.right - p.truncate(order)).is_zero(),
                "left·right differs from p mod b^order")
        require([split.d, split.h, split.q] == job["shape"], "split shape (d, h, q) differs")
        return

    o = oracle(job["spec"])
    dh = o["d"] + o["h"]
    if kind == "analyze_json":
        _check_analysis(json.loads(out), o)
    elif kind == "analyze_text":
        _check_analysis(_analyze_text_values(lines), o)
    elif kind == "operator_json":
        data = json.loads(out)
        op = GMOperator.from_json(data)
        _check_analysis({"d": op.d, "h": op.h, "r": op.r, "c": op.c}, o)
        require(op.to_json() == data, "operator JSON does not round-trip")
    elif kind == "operator_text":
        expect = f"P = P_{dh} - c·{lambda_str(o['r'])}·P_{o['d']}   with c = {o['c']}"
        require(expect in lines, "operator line differs from the closed form")
    elif kind == "ode_json":
        data = json.loads(out)
        require(data["order"] == dh, "ODE order is not d+h")
        top = DiffOp.from_json(data["operator"]).coefficient(dh)
        rhs = _expected_rhs(o)
        for k in range(max(top.degree, dh) + 1):
            want = 1 if k == dh else (-rhs if k == o["d"] else 0)
            require(as_laurent(top[k]) == as_laurent(want),
                    "top coefficient is not s^(d+h) - c·λ^r·s^d")
        eq = data["singular_equation"]
        require(eq["h"] == o["h"] and LaurentLambda.from_json(eq["rhs"]) == rhs,
                "singular equation is not s^h = c·λ^r")
    elif kind == "ode_text":
        require(lines[0] == f"order {dh} operator (D = d/ds):", "ODE order is not d+h")
        require(lines[-1] == f"nonzero singular points solve: s^{o['h']} = {_expected_rhs(o)}",
                "singular equation is not s^h = c·λ^r")
    elif kind == "factor_json":
        report = PipelineReport.from_json(json.loads(out))
        ranks = [f.rank for f in report.factorization.factors]
        require(sum(ranks) == dh and report.operator_rank == dh, "ranks do not sum to d+h")
        require(len(ranks) >= job.get("min_blocks", 1), "fewer spectral blocks than generated for")
        require(report.zero_block.divides_P_d, "Bernstein element does not divide P_d")
        spec = PolySpec.from_json(json.loads(Path(job["spec"]).read_text()))
        p = build_operator(spec).specialized(Fraction(job["lam"])).truncate(report.trunc)
        require((report.factorization.product() - p).is_zero(), "factors do not multiply back to P")
    elif kind == "factor_text":
        require(f"operator rank d+h = {dh}" in lines, "operator rank is not d+h")
        require("right-divides P_d: yes" in lines, "Bernstein element does not divide P_d")
    elif kind == "intdep_json":
        data = json.loads(out)
        require((data["degree"], data["r"]) == (dh, o["r"]), "relation degree or r differs")
        check_relation_json(data, o, rng)
        if "--verify" in job["argv"]:
            require(data.get("verified") is True, "exact verification failed")
    elif kind == "intdep_text":
        require(lines[0] == f"monic integral-dependence relation of degree {dh} in f:",
                "relation degree is not d+h")
        check_relation_text(lines[1], o, rng)
        if "--verify" in job["argv"]:
            require(lines[-1] == "exact expansion check: PASS", "exact verification failed")
    else:
        raise CheckFailed(f"unknown check kind {kind}")


def max_coeff_bits(data: bytes) -> int:
    """Bit length of the largest integer printed (numerators and denominators)."""
    longest = max(re.findall(rb"\d+", data), key=len, default=b"0")
    return int(longest).bit_length()


def check_job(job: dict, rc, stdout_path: Path, stderr_path: Path, reference: dict,
              seed: int, want_bits: bool = False) -> dict:
    """Check one finished job; returns ok, reason, the stdout digest and,
    on request, the largest coefficient in bits."""
    data = stdout_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    result = {"ok": True, "why": None, "sha256": digest,
              "coeff_bits": max_coeff_bits(data) if want_bits else 0}
    try:
        require(rc == job["expect_rc"], f"exit code {rc}, expected {job['expect_rc']}")
        if job["reference"]:
            require(job["id"] in reference, "no reference output recorded")
            require(reference[job["id"]] == digest, "stdout differs from the reference")
        rng = random.Random(f"{seed}:{job['id']}")
        check_kind(job, data.decode(), stderr_path.read_text(errors="replace"), rng)
    except CheckFailed as exc:
        result.update(ok=False, why=str(exc))
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        result.update(ok=False, why=f"unreadable output: {type(exc).__name__}: {exc}")
    return result
