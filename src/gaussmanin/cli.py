"""Command-line interface.

Exit codes: 0 on success, 2 on precondition failures (bad input, schema or
I/O problems, quasi-homogeneous polynomials, lambda = 0), 1 on internal
errors.  All numbers print exactly; lambda stays symbolic except where a
subcommand requires --lambda.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import selftest as selftest_mod
from .engine import PolySpec, analyze, build_operator, load_spec_file, weights
from .errors import GaussManinError, PreconditionError
from .factor import regular_quotient_pipeline
from .intdep import dependence_relation, factored_relation_str, verify_identity
from .critical import critical_values, equation_holds
from .ode import singular_values, to_differential_operator


MAX_ORDER = 2000   # largest d+h accepted: every output grows with it
MAX_STARTS = 10_000   # most Newton starts accepted: about 1.2 s on quintic


def _fmt_tuple(xs) -> str:
    return "(" + ", ".join(str(x) for x in xs) + ")"


def _analyze_text(spec: PolySpec) -> list[str]:
    rel = analyze(spec)
    lam = "λ" if rel.r == 1 else f"λ^{rel.r}"
    return [
        f"f = {spec.poly_str()}",
        f"rho = {_fmt_tuple(rel.rho)}",
        f"|r| = {rel.r_abs}   p = {_fmt_tuple(rel.p)}",
        f"H = {_fmt_tuple(rel.H)}   J+ = {_fmt_tuple(rel.J_plus)}   J- = {_fmt_tuple(rel.J_minus)}",
        f"Delta = {_fmt_tuple(rel.Delta)}   delta = {_fmt_tuple(rel.delta)}",
        f"d = {rel.d}   h = {rel.h}   r = {rel.r}",
        f"eta = {_fmt_tuple(rel.eta)}",
        f"c = {rel.c}",
        f"singular values solve s^{rel.h} = c·{lam}",
    ]


def _cmd_analyze(args) -> int:
    paths = [Path(args.spec)]
    if args.batch:
        base = Path(args.spec)
        if not base.is_dir():
            raise PreconditionError(f"--batch expects a directory, got {base}")
        paths = sorted(base.glob("*.json"))
        if not paths:
            raise PreconditionError(f"no .json spec files in {base}")
    out = []
    for path in paths:
        spec = _load_spec(path)
        if args.format == "json":
            out.append(json.dumps({"file": str(path), **analyze(spec).to_json()}, indent=2))
        else:
            if args.batch:
                out.append(f"== {path}")
            out.extend(_analyze_text(spec))
    print("\n".join(out))
    return 0


def _parse_mu(text: str, n: int):
    try:
        mu = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise PreconditionError(f"bad --mu value {text!r}") from exc
    if len(mu) != n:
        raise PreconditionError(f"--mu needs {n} comma-separated integers")
    return mu


def _load_spec(path, mu: str | None = None) -> PolySpec:
    """The spec in path with --mu applied, refused if d+h exceeds MAX_ORDER."""
    spec = load_spec_file(path)
    if mu is not None:
        spec = spec.with_mu(_parse_mu(mu, spec.n_vars))
    w = weights(spec)   # d+h without c, which grows with it
    if w["d"] + w["h"] > MAX_ORDER:
        raise PreconditionError(
            f"{path}: d+h = {w['d'] + w['h']} exceeds the supported maximum {MAX_ORDER}")
    return spec


def _cmd_operator(args) -> int:
    spec = _load_spec(args.spec, args.mu)
    op = build_operator(spec)
    if args.format == "json":
        print(json.dumps(op.to_json(), indent=2))
    else:
        lam = "λ" if op.r == 1 else f"λ^{op.r}"
        print(f"f = {spec.poly_str()}")
        print(f"mu exponent = {_fmt_tuple(spec.mu)}")
        print(f"P = P_{op.d + op.h} - c·{lam}·P_{op.d}   with c = {op.c}")
        print(f"P_{op.d + op.h} = {op.chain_dh}")
        print(f"      = {op.P_dh}")
        print(f"P_{op.d} = {op.chain_d}")
        print(f"      = {op.P_d}")
    return 0


def _cmd_ode(args) -> int:
    spec = _load_spec(args.spec, args.mu)
    op = build_operator(spec)
    diff = to_differential_operator(op)
    h, rhs = singular_values(op)
    if args.format == "json":
        print(json.dumps({
            "order": diff.order,
            "operator": diff.to_json(),
            "singular_equation": {"h": h, "rhs": rhs.to_json()},
        }, indent=2))
    else:
        print(f"order {diff.order} operator (D = d/ds):")
        print(str(diff))
        print(f"nonzero singular points solve: s^{h} = {rhs}")
    return 0


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad --lambda value {text!r}") from exc


def _cmd_factor(args) -> int:
    spec = _load_spec(args.spec)
    op = build_operator(spec)
    lam = _parse_lambda(args.lam)
    report = regular_quotient_pipeline(op, lam, order=args.prec)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print("\n".join(report.summary_lines()))
    return 0


def _cmd_intdep(args) -> int:
    spec = _load_spec(args.spec)
    relation = None
    if args.format == "json" or args.expanded or args.verify:
        relation = dependence_relation(spec)
    ok = verify_identity(relation) if args.verify else True
    if args.format == "json":
        payload = relation.to_json()
        if args.verify:
            payload["verified"] = ok
        print(json.dumps(payload, indent=2))
    else:
        rel = analyze(spec)
        print(f"monic integral-dependence relation of degree {rel.d + rel.h} in f:")
        print(factored_relation_str(spec))
        if args.expanded:
            print("expanded:")
            print(relation.expanded_str())
        if args.verify:
            print(f"exact expansion check: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise GaussManinError("dependence relation failed exact verification")
    return 0


def _cmd_verify_critical(args) -> int:
    if args.starts > MAX_STARTS:
        raise PreconditionError(
            f"--starts {args.starts} exceeds the supported maximum {MAX_STARTS}")
    spec = _load_spec(args.spec)
    lam = complex(_parse_lambda(args.lam))
    report = critical_values(spec, lam, n_starts=args.starts, tol=args.tol)
    ok = equation_holds(spec, report, args.tol)
    if args.format == "json":
        payload = report.to_json()
        payload["equation_satisfied"] = ok
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(report.table_lines()))
        print(f"singular-value equation satisfied: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    return selftest_mod.run(verbose=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmanin",
        description="Exact Gauss-Manin differential operators for polynomials "
                    "with n+2 monomials in n+1 variables, and their b-adic factorization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("spec", help="path to a polynomial spec JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="weights, relation data and the constant c")
    add_spec(p)
    p.add_argument("--batch", action="store_true",
                   help="treat SPEC as a directory of spec files")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("operator", help="the operator P = P_{d+h} - c·λ^r·P_d")
    add_spec(p)
    p.add_argument("--mu", help="override the numerator exponent, e.g. '1,0,0'")
    p.set_defaults(fn=_cmd_operator)

    p = sub.add_parser("ode", help="classical ODE form and singular values")
    add_spec(p)
    p.add_argument("--mu", help="override the numerator exponent")
    p.set_defaults(fn=_cmd_ode)

    p = sub.add_parser("factor", help="spectral factorization and Bernstein data")
    add_spec(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="rational value for lambda, e.g. 1 or 3/2")
    p.add_argument("--prec", type=int, default=16, help="b-adic truncation order")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("intdep", help="integral-dependence relation of f")
    add_spec(p)
    p.add_argument("--verify", action="store_true",
                   help="check the relation by exact multivariate expansion")
    p.add_argument("--expanded", action="store_true",
                   help="print the expanded coefficients as well")
    p.set_defaults(fn=_cmd_intdep)

    p = sub.add_parser("verify-critical",
                       help="numeric check that critical values solve s^h = c·λ^r")
    add_spec(p)
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--starts", type=int, default=200)
    p.set_defaults(fn=_cmd_verify_critical)

    p = sub.add_parser("selftest", help="run the built-in identity suites")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    # c and the printed coefficients grow with d+h, which MAX_ORDER bounds;
    # Python's default int-to-str limit of 4,300 digits (3.10.7+) is below it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout early, which is not bad input; devnull keeps
        # the flush at exit from failing again ("Note on SIGPIPE", signal docs)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GaussManinError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # any other failure is a bug; repr keeps it to one line
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
