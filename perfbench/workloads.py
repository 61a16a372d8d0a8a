"""Seeded inputs and job lists for the workloads.

A job is one `gaussmanin` CLI invocation (an argv list for
`gaussmanin.cli.main`) or, for `split_irregular`, one public library call.
`generate` draws every random input from the seed, writes the spec and
element files plus `jobs.json` into the run's input directory and returns
the job list.  It calls into gaussmanin to accept or reject candidate specs,
so run it in a throwaway process: the caches it fills must not reach the
timed jobs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

from gaussmanin import ABElement, PolySpec, analyze, check_condition_C, dependence_relation
from gaussmanin.errors import PreconditionError

# Rejected inputs whose exit status is wrong at the seed commit: the jobs stay
# in the list and run every pass; layers.json says how they are counted.
KNOWN_DEFECTS = json.loads(
    (Path(__file__).resolve().parent / "layers.json").read_text())["known_defects"]

BAD_EXPONENTS_SPEC = {"nvars": 2, "monomials": [[2.7, 0], [0, 3]],
                      "lambda_monomial": [True, 1], "mu": ["0", 0]}
X400_SPEC = {"nvars": 2, "monomials": [[400, 0], [0, 301]],
             "lambda_monomial": [1, 1], "mu": [0, 0]}


def shipped(name: str) -> str:
    return f"specs/{name}.json"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def random_spec(rng: random.Random, n_vars, max_entry: int, accept):
    """First random accepted spec (n_vars drawn from the given choices, exponent
    entries in 0..max_entry) for which accept(spec, rel) holds."""
    for _ in range(200_000):
        n = rng.choice(n_vars)
        cols: set[tuple[int, ...]] = set()
        while len(cols) < n + 1:
            cols.add(tuple(rng.randint(0, max_entry) for _ in range(n)))
        ordered = sorted(cols)
        rng.shuffle(ordered)
        try:
            spec = PolySpec(tuple(ordered[:n]), ordered[n], (0,) * n)
            if not check_condition_C(spec):
                continue
            rel = analyze(spec)
        except (PreconditionError, AssertionError, ZeroDivisionError):
            continue
        if accept(spec, rel):
            return spec, rel
    raise RuntimeError("no accepted spec found; the generator bounds are too tight")


def dh_band(lo: int, hi: int):
    return lambda spec, rel: lo <= rel.d + rel.h <= hi


def split_lambda(rel) -> Fraction:
    """λ with c·λ^r = c^(1-|r|), a square for odd r: with h even the class
    a^h - c·λ^r then splits into at least two coprime blocks besides a^d."""
    return rel.c if rel.r < 0 else 1 / rel.c


def _is_square(x: Fraction) -> bool:
    return all(isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


def splits_in_three(h: int, r_abs: int):
    """Specs with the given h and |r| (odd) and 6 <= d <= 12.  With
    λ = split_lambda the mod-b class is a^d·(a^h - t^2), t = c^(±(|r|-1)/2):
    h = 2 gives linear blocks, (h, |r|) = (4, 1) blocks a-1, a+1, a^2+1, and
    (4, 3) with |c| not a square two quadratic blocks, which coprime_split
    certifies through its sympy fallback."""
    def accept(spec, rel):
        return (6 <= rel.d <= 12 and rel.h == h and abs(rel.r) == r_abs
                and not (h == 4 and r_abs == 3 and _is_square(abs(rel.c))))
    return accept


def intdep_sized(lo: int, hi: int, min_terms: int, max_terms: int):
    def accept(spec, rel):
        if not lo <= rel.d + rel.h <= hi:
            return False
        terms = sum(len(c) for c in dependence_relation(spec).coefficients)
        return min_terms <= terms <= max_terms
    return accept


def random_monic_chain(rng: random.Random, length: int) -> ABElement:
    out = ABElement.one()
    for _ in range(length):
        theta = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        out = out * ABElement.linear(Fraction(1), theta)
    return out


def irregular_element(rng: random.Random, d: int, h: int, q: int) -> ABElement:
    """P_{d+h} + rho·b^q·P_{d-q}: the criterion-6 class of irregular elements."""
    rho = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return random_monic_chain(rng, d + h) + random_monic_chain(rng, d - q).shift_b(q) * rho


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def cli_job(argv, check, spec=None, expect_rc=0, known_defect=None, **extra) -> dict:
    job = {"id": " ".join(argv), "argv": list(argv), "check": check, "spec": spec,
           "expect_rc": expect_rc, "known_defect": known_defect}
    job.update(extra)
    return job


def _write_spec(inputs: Path, name: str, spec: PolySpec) -> str:
    path = inputs / f"{name}.json"
    path.write_text(json.dumps(spec.to_json()) + "\n")
    return str(path)


def construct_jobs(rng, inputs: Path, size: str) -> list[dict]:
    quick = size == "quick"
    slots = [] if quick else [((2,), 21, 23), ((3,), 33, 35), ((4,), 45, 47)]
    paths = [shipped("e2" if quick else "e61")]
    for k, (n_vars, lo, hi) in enumerate(slots):
        spec, _ = random_spec(rng, n_vars, 7, dh_band(lo, hi))
        paths.append(_write_spec(inputs, f"construct-{k}", spec))
    jobs = []
    for path in paths:
        e61 = path == shipped("e61")
        jobs.append(cli_job(["operator", path, "--format", "json"], "operator_json", path))
        if e61 or quick or size == "heavy":
            jobs.append(cli_job(["ode", path, "--format", "json"], "ode_json", path))
        if not e61 or size == "heavy":
            jobs.append(cli_job(["ode", path], "ode_text", path))
    return jobs


def factor_jobs(rng, inputs: Path, size: str) -> list[dict]:
    quick = size == "quick"
    fixed = [("e2", 16), ("quintic", 16)] if quick else [
        ("e2", 16), ("e2", 40), ("e3", 16), ("e4", 16), ("quintic", 16)]
    if size == "heavy":
        fixed += [("e3", 32), ("e61", 63)]
    jobs = []
    for name, prec in fixed:
        path = shipped(name)
        jobs.append(cli_job(["factor", path, "--lambda", "1", "--prec", str(prec),
                             "--format", "json"], "factor_json", path, lam="1"))
    classes = [(2, 1)] if quick else [(2, 1), (2, 3), (4, 1), (4, 3)]
    for k, (h, r_abs) in enumerate(classes):
        spec, rel = random_spec(rng, (2, 3), 5, splits_in_three(h, r_abs))
        path = _write_spec(inputs, f"factor-{k}", spec)
        lam = str(split_lambda(rel))
        # the = form keeps a negative λ from reading as an option
        jobs.append(cli_job(["factor", path, f"--lambda={lam}", "--prec", str(rel.d + 3),
                             "--format", "json"], "factor_json", path, lam=lam, min_blocks=3))
    slots = [(8, 1, 2)] if quick else [(12, 2, 3), (14, 1, 5), (16, 2, 6)]
    for k, (d, h, q) in enumerate(slots):
        p = irregular_element(rng, d, h, q)
        path = inputs / f"irregular-{k}.json"
        path.write_text(json.dumps(p.to_json()) + "\n")
        jobs.append({"id": f"split_irregular {path} 12", "library": "split_irregular",
                     "input": str(path), "order": 12, "check": "split_json", "spec": None,
                     "expect_rc": 0, "known_defect": None, "shape": [d, h, q]})
    return jobs


def intdep_jobs(rng, inputs: Path, size: str) -> list[dict]:
    quick = size == "quick"
    jobs = []
    if size == "heavy":
        jobs.append(cli_job(["intdep", shipped("e61")], "intdep_text", shipped("e61")))
        jobs.append(cli_job(["intdep", shipped("e61"), "--format", "json"], "intdep_json",
                            shipped("e61")))
    for name in ["e2"] if quick else ["e2", "e3"]:
        path = shipped(name)
        jobs.append(cli_job(["intdep", path, "--verify"], "intdep_text", path))
        jobs.append(cli_job(["intdep", path, "--verify", "--format", "json"], "intdep_json", path))
    for k in range(1 if quick else 3):
        spec, _ = random_spec(rng, (3, 4), 5, intdep_sized(18, 24, 2500, 4000))
        path = _write_spec(inputs, f"intdep-{k}", spec)
        jobs.append(cli_job(["intdep", path], "intdep_text", path))
        jobs.append(cli_job(["intdep", path, "--format", "json"], "intdep_json", path))
    return jobs


def interactive_jobs(rng, inputs: Path, size: str) -> list[dict]:
    quick = size == "quick"
    jobs = []
    names = ["e2"] if quick else ["e2", "e3", "e4", "quintic"]
    small = []
    for k in range(1 if quick else 3):
        # h <= 3 keeps coprime_split off its sympy fallback, whose import
        # would make the peak RSS depend on the seed
        spec, _ = random_spec(rng, (2, 3), 5, lambda s, rel: (
            8 <= rel.d + rel.h <= 20 and rel.d <= 14 and rel.h <= 3))
        small.append(_write_spec(inputs, f"small-{k}", spec))
    batch = inputs / "batch"
    batch.mkdir(exist_ok=True)
    for k, path in enumerate(small):
        (batch / f"small-{k}.json").write_text(Path(path).read_text())
    for path in [shipped(n) for n in names] + small:
        jobs.append(cli_job(["analyze", path], "analyze_text", path))
        jobs.append(cli_job(["analyze", path, "--format", "json"], "analyze_json", path))
        jobs.append(cli_job(["operator", path], "operator_text", path))
        jobs.append(cli_job(["ode", path], "ode_text", path))
        jobs.append(cli_job(["factor", path, "--lambda", "1", "--prec", "16"], "factor_text", path))
        jobs.append(cli_job(["intdep", path], "intdep_text", path))
    jobs.append(cli_job(["analyze", str(batch), "--batch"], "analyze_batch", str(batch)))
    jobs.append(cli_job(["analyze", str(batch), "--batch", "--format", "json"],
                        "analyze_batch", str(batch)))
    jobs.append(cli_job(["operator", shipped("e2"), "--mu", "1,0"], "operator_text", shipped("e2")))
    for name in names[:2]:
        path = shipped(name)
        jobs.append(cli_job(["intdep", path, "--verify"], "intdep_text", path))
    for name in names:
        path = shipped(name)
        jobs.append(cli_job(["verify-critical", path], "critical_text", path))
    jobs.append(cli_job(["verify-critical", shipped("e2"), "--format", "json"],
                        "critical_json", shipped("e2")))
    if not quick:
        jobs.append(cli_job(["selftest"], "selftest"))
    bad = inputs / "bad-exponents.json"
    bad.write_text(json.dumps(BAD_EXPONENTS_SPEC) + "\n")
    x400 = inputs / "x400.json"
    x400.write_text(json.dumps(X400_SPEC) + "\n")
    jobs += [
        cli_job(["analyze", shipped("homog")], "reject", expect_rc=2),
        cli_job(["factor", shipped("e2"), "--lambda", "0"], "reject", expect_rc=2),
        cli_job(["operator", shipped("e2"), "--mu", "1,x"], "reject", expect_rc=2),
        cli_job(["analyze", str(bad)], "reject", expect_rc=2,
                known_defect=KNOWN_DEFECTS["bad-exponents"]),
        cli_job(["analyze", str(x400)], "reject", expect_rc=2,
                known_defect=KNOWN_DEFECTS["x400"]),
    ]
    return jobs


JOB_LISTS = {"construct": construct_jobs, "factor": factor_jobs,
            "intdep": intdep_jobs, "interactive": interactive_jobs}

WORKLOADS = ("exact", *JOB_LISTS)


def generate(workload: str, seed: int, inputs: Path, size: str = "default") -> list[dict]:
    """Write the workload's inputs and job list for `seed` into `inputs`.
    size "quick" shrinks every list to a few small jobs; "heavy" adds the
    long e61 and e3 jobs (e61 factor at --prec 63 takes about a minute)."""
    inputs.mkdir(parents=True, exist_ok=True)
    jobs = []
    # "exact" runs the construct, factor and intdep lists in one workload
    for part in ("construct", "factor", "intdep") if workload == "exact" else (workload,):
        rng = random.Random(f"{part}:{seed}")
        jobs += JOB_LISTS[part](rng, inputs, size)
    for job in jobs:
        job["reference"] = job.get("library") is None and all(
            not a.startswith(str(inputs)) for a in job["argv"])
    (inputs / "jobs.json").write_text(json.dumps(jobs, indent=1) + "\n")
    return jobs
