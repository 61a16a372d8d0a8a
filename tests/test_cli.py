import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import ROOT_PRIMES, SPEC_DIR, run_python, src_env
from gaussmanin import cli, critical, engine, intdep
from gaussmanin.cli import main
from gaussmanin.engine import RelationData, GMOperator, analyze, build_operator, load_spec_file
from gaussmanin.ode import DiffOp


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# stdout sha256 of the benchmark's jobs, recorded from the command line
REFERENCE = json.loads((SPEC_DIR.parent / "perfbench" / "reference.json").read_text())
SLOW_JOBS = {"intdep specs/e61.json", "intdep specs/e61.json --format json"}
# the jobs refused with exit 2: no stdout and this one line on stderr
REJECT_JOBS = {
    "analyze specs/homog.json": "error: f = x^2 + y^2 + λ·x·y is quasi-homogeneous\n",
    "factor specs/e2.json --lambda 0": "error: the parameter must be nonzero\n",
    "operator specs/e2.json --mu 1,x": "error: bad --mu value '1,x'\n",
}
CRITICAL_JOBS = sorted(job for job in REFERENCE if job.startswith("verify-critical "))


def _jobs(keep) -> list:
    return [pytest.param(job, marks=pytest.mark.slow) if job in SLOW_JOBS else job
            for job in sorted(REFERENCE) if keep(job)]


JSON_JOBS = _jobs(lambda job: job.split()[0] in ("analyze", "operator", "ode", "factor", "intdep")
                  and "--format json" in job)
# every other job that exits 0: the text outputs and selftest
TEXT_JOBS = _jobs(lambda job: "--format json" not in job and job not in CRITICAL_JOBS
                  and job not in REJECT_JOBS)


def _check_reference_bytes(capsys, monkeypatch, job):
    monkeypatch.chdir(SPEC_DIR.parent)
    code, out, _ = run_cli(capsys, *job.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[job]


@pytest.mark.parametrize("job", JSON_JOBS)
def test_json_output_is_byte_identical_to_reference(capsys, monkeypatch, job):
    _check_reference_bytes(capsys, monkeypatch, job)


@pytest.mark.parametrize("job", TEXT_JOBS)
def test_text_output_is_byte_identical_to_reference(capsys, monkeypatch, job):
    _check_reference_bytes(capsys, monkeypatch, job)


# all five verify-critical jobs, text and JSON
@pytest.mark.parametrize("job", CRITICAL_JOBS)
def test_verify_critical_output_is_byte_identical_to_reference(capsys, monkeypatch, job):
    _check_reference_bytes(capsys, monkeypatch, job)


@pytest.mark.parametrize("job", sorted(REJECT_JOBS))
def test_reference_reject_exits_2_with_one_line(capsys, monkeypatch, job):
    monkeypatch.chdir(SPEC_DIR.parent)
    code, out, err = run_cli(capsys, *job.split())
    assert code == 2 and out == "" and err == REJECT_JOBS[job]
    assert REFERENCE[job] == hashlib.sha256(b"").hexdigest()


def test_ode_builds_no_P(capsys, monkeypatch):
    # the ODE export reads only the chains, c, r, d and h
    def refuse(chain, error):
        raise AssertionError("a P was built")

    monkeypatch.setattr(engine, "_monic_product", refuse)
    _check_reference_bytes(capsys, monkeypatch, "ode specs/e61.json --format json")


def test_every_reference_job_is_pinned():
    pinned = [p.values[0] if hasattr(p, "values") else p for p in JSON_JOBS + TEXT_JOBS]
    pinned += CRITICAL_JOBS + list(REJECT_JOBS)
    assert sorted(pinned) == sorted(REFERENCE) and len(REFERENCE) == 52


# `ode --format json` stdout sha256 at h far beyond the shipped specs' h ≤ 15,
# recorded from the Horner export in θ before the closed form
LARGE_H_ODE = {
    (14, 17): "6d46fec295abd96e0f87c567f6e14f7c353dd656b2a42e75237e75fe30076615",   # h = 207
    (20, 23): "e037593d8e01d038ddec7d60e347a985974ac8d30b0b88070d0c81e3ce835cd7",   # h = 417
}


@pytest.mark.parametrize("a, b", sorted(LARGE_H_ODE))
def test_ode_json_bytes_at_large_h(tmp_path, a, b):
    spec = tmp_path / f"x{a}y{b}.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[a, 0], [0, b]],
                                "lambda_monomial": [1, 1], "mu": [0, 0]}))
    proc = subprocess.run([sys.executable, "-m", "gaussmanin.cli", "ode", str(spec),
                           "--format", "json"], capture_output=True, env=src_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == LARGE_H_ODE[a, b]


def test_analyze_batch_json_is_each_spec_in_turn(capsys, tmp_path):
    names = ("e2.json", "e3.json", "e4.json", "quintic.json")
    for name in names:
        (tmp_path / name).write_text((SPEC_DIR / name).read_text())
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path), "--batch", "--format", "json")
    assert code == 0
    assert out == "\n".join(
        json.dumps({"file": str(tmp_path / name),
                    **analyze(load_spec_file(tmp_path / name)).to_json()}, indent=2)
        for name in names) + "\n"


def test_analyze_batch_json_prints_nothing_before_a_bad_spec(capsys, tmp_path):
    (tmp_path / "a.json").write_text((SPEC_DIR / "e2.json").read_text())
    (tmp_path / "b.json").write_text((SPEC_DIR / "homog.json").read_text())
    code, out, err = run_cli(capsys, "analyze", str(tmp_path), "--batch", "--format", "json")
    assert code == 2 and out == ""
    assert err.count("\n") == 1


def _intdep_json_sha256(tmp_path, a: int, b: int) -> str:
    """The stdout sha256 of `intdep --format json` on x^a + y^b + λxy."""
    spec = tmp_path / f"x{a}y{b}.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[a, 0], [0, b]],
                                "lambda_monomial": [1, 1], "mu": [0, 0]}))
    proc = subprocess.run([sys.executable, "-m", "gaussmanin.cli", "intdep", str(spec),
                           "--format", "json"], capture_output=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout).hexdigest()


def test_intdep_json_bytes_at_d_plus_h_130(tmp_path):
    # x^10 + y^13 + λxy: 2.8 MB in under a second, where the e61 pin takes 41 MB
    # and seconds; stdout sha256 recorded when cli printed json.dumps(indent=2)
    assert _intdep_json_sha256(tmp_path, 10, 13) == \
        "806113c8283c22bc232eaaad195823a18db752f3e0c4b99205860d584181bf87"


# stdout sha256 recorded while each product was expanded by d+h or d products
# with one linear form: 13 MB in 2.2 s at d+h = 238, 81 MB in 29 s at 460
def test_intdep_json_bytes_at_d_plus_h_238(tmp_path):
    assert _intdep_json_sha256(tmp_path, 14, 17) == \
        "be6b27d0da9c25710950e1281bc750c56d22b7276392fde9447dca2b1f286dd0"


@pytest.mark.slow
def test_intdep_json_bytes_at_d_plus_h_460(tmp_path):
    assert _intdep_json_sha256(tmp_path, 20, 23) == \
        "f72395a84c2b303a2b08ceb3604c9af5e65f02023db37b545c0b90fa0a4c20ac"


# stdout sha256 recorded while each relation coefficient was stored as a
# LaurentLambda: a relation with r = -1 beside e3's r = -12, and the first
# pins of --expanded
R_NEGATIVE = {"nvars": 2, "monomials": [[1, 1], [5, 2]], "lambda_monomial": [2, 5],
              "mu": [0, 0]}   # d+h = 7
INTDEP_PINS = {
    ("r-1", "--format", "json"): "5d5764fa7d5632bf95a9c655e22eac393a8102c0d3427f4ea78fc63e22595d1b",
    ("r-1", "--expanded"): "cfedf93a66093bd419c534b572cd69ae6f0a2fded62f4bd14ec4d735d8a58b9b",
    ("e3", "--expanded"): "1abe20aa278a8f96156a21bd95357d4617c0dbf8015c33fb7efcee9c4a842db7",
}


@pytest.mark.parametrize("name, flags", [(job[0], job[1:]) for job in INTDEP_PINS])
def test_intdep_bytes_at_negative_r_and_expanded(capsys, tmp_path, name, flags):
    spec = tmp_path / "r-1.json"
    spec.write_text(json.dumps(R_NEGATIVE))
    path = spec if name == "r-1" else SPEC_DIR / f"{name}.json"
    code, out, _ = run_cli(capsys, "intdep", str(path), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INTDEP_PINS[(name, *flags)]


@pytest.mark.slow
def test_intdep_verify_passes_on_e61():
    # e61's x-space check ran for over 200 s and was refused; the certificate
    # takes under a second in process.  stdout is the pinned output with the
    # check's verdict after it
    text_tail = b"exact expansion check: PASS\n"
    json_tail = b'\n  ],\n  "verified": true\n}\n'
    for job, tail, pinned_tail in (("intdep specs/e61.json", text_tail, b""),
                                   ("intdep specs/e61.json --format json", json_tail,
                                    b"\n  ]\n}\n")):
        proc = subprocess.run([sys.executable, "-m", "gaussmanin.cli", *job.split(),
                               "--verify"], capture_output=True, env=src_env(),
                              cwd=SPEC_DIR.parent, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(tail)
        pinned = proc.stdout[:-len(tail)] + pinned_tail
        assert hashlib.sha256(pinned).hexdigest() == REFERENCE[job]


def test_intdep_verify_runs_past_the_old_cost_bound(capsys, tmp_path):
    # x^8 + y^9 + λxy had an x-space cost bound of 44M and was refused above 10M
    spec = tmp_path / "x8y9.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[8, 0], [0, 9]],
                                "lambda_monomial": [1, 1], "mu": [0, 0]}))
    code, out, _ = run_cli(capsys, "intdep", str(spec), "--verify")
    assert code == 0
    assert out.endswith("exact expansion check: PASS\n")


def test_analyze_e61(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SPEC_DIR / "e61.json"))
    assert code == 0
    assert "d = 61" in out and "h = 15" in out and "r = -61" in out
    c = analyze(load_spec_file(SPEC_DIR / "e61.json")).c
    assert f"c = {c}" in out


def test_analyze_quasi_homogeneous_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", str(SPEC_DIR / "homog.json"))
    assert code == 2
    assert "quasi-homogeneous" in err


def test_analyze_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(SPEC_DIR / "e2.json"), "--format", "json")
    assert code == 0
    data = json.loads(out)
    data.pop("file")
    assert RelationData.from_json(data) == analyze(load_spec_file(SPEC_DIR / "e2.json"))


def test_analyze_batch(capsys, tmp_path):
    for name in ("e2.json", "e3.json"):
        (tmp_path / name).write_text((SPEC_DIR / name).read_text())
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path), "--batch")
    assert code == 0
    assert out.count("== ") == 2
    assert out.index("e2.json") < out.index("e3.json")


def test_operator_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "operator", str(SPEC_DIR / "e2.json"), "--format", "json")
    assert code == 0
    op = GMOperator.from_json(json.loads(out))
    ref = build_operator(load_spec_file(SPEC_DIR / "e2.json"))
    assert op.P_d == ref.P_d and op.P_dh == ref.P_dh and op.c == ref.c


def test_operator_mu_flag(capsys):
    code, out, _ = run_cli(capsys, "operator", str(SPEC_DIR / "e2.json"), "--mu", "1,0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["spec"]["mu"] == [1, 0]
    code, _, err = run_cli(capsys, "operator", str(SPEC_DIR / "e2.json"), "--mu", "1")
    assert code == 2


def test_ode_text(capsys):
    code, out, _ = run_cli(capsys, "ode", str(SPEC_DIR / "e2.json"), "--format", "text")
    assert code == 0
    assert "order 6 operator" in out
    assert "s^6 + (1/432·λ^6)·s^5" in out
    assert "s^1 = -1/432·λ^6" in out


def test_ode_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "ode", str(SPEC_DIR / "e2.json"), "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["order"] == 6
    diff = DiffOp.from_json(data["operator"])
    assert diff.order == 6


def test_factor_text(capsys):
    code, out, _ = run_cli(capsys, "factor", str(SPEC_DIR / "e2.json"),
                           "--lambda", "1", "--prec", "12")
    assert code == 0
    assert "right-divides P_d: yes" in out
    assert "rank 5" in out and "rank 1" in out


def test_factor_json(capsys):
    code, out, _ = run_cli(capsys, "factor", str(SPEC_DIR / "e2.json"),
                           "--lambda", "1", "--prec", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["zero_block"]["divides_P_d"] is True
    assert [f["rank"] for f in data["factors"]] == [5, 1]


def test_factor_lambda_zero_exits_2(capsys):
    code, _, err = run_cli(capsys, "factor", str(SPEC_DIR / "e2.json"), "--lambda", "0")
    assert code == 2


def test_intdep_verify(capsys):
    code, out, _ = run_cli(capsys, "intdep", str(SPEC_DIR / "e2.json"), "--verify")
    assert code == 0
    assert "degree 6" in out
    assert "PASS" in out


def test_intdep_json(capsys):
    code, out, _ = run_cli(capsys, "intdep", str(SPEC_DIR / "e3.json"),
                           "--format", "json", "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 13
    assert data["verified"] is True


def _count_calls(monkeypatch, name, modules):
    """Replace `name` in each module by one wrapper that counts its calls."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_intdep_text_does_not_expand(capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("text intdep expanded the relation")

    monkeypatch.setattr(cli, "dependence_relation", refuse)
    monkeypatch.setattr(intdep, "dependence_relation", refuse)
    code, out, _ = run_cli(capsys, "intdep", str(SPEC_DIR / "e3.json"))
    assert code == 0
    assert "degree 13" in out and out.rstrip().endswith("= 0")


@pytest.mark.parametrize("flags", [("--verify",), ("--expanded",),
                                   ("--verify", "--format", "json")])
def test_intdep_expands_once(capsys, monkeypatch, flags):
    calls = _count_calls(monkeypatch, "dependence_relation", [cli, intdep])
    code, _, _ = run_cli(capsys, "intdep", str(SPEC_DIR / "e2.json"), *flags)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_critical_runs_one_search(capsys, monkeypatch, fmt):
    calls = _count_calls(monkeypatch, "critical_values", [cli, critical])
    code, _, _ = run_cli(capsys, "verify-critical", str(SPEC_DIR / "e2.json"),
                         "--starts", "40", "--format", fmt)
    assert code == 0
    assert len(calls) == 1


def test_verify_critical(capsys):
    code, out, _ = run_cli(capsys, "verify-critical", str(SPEC_DIR / "e2.json"),
                           "--lambda", "1", "--starts", "40")
    assert code == 0
    assert "satisfied: yes" in out


def test_verify_critical_json(capsys):
    code, out, _ = run_cli(capsys, "verify-critical", str(SPEC_DIR / "e2.json"),
                           "--lambda", "1", "--starts", "40", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["equation_satisfied"] is True


@pytest.mark.parametrize("flags", [("--starts", "0"), ("--starts", "-5"), ("--tol", "-1"),
                                   ("--tol", "0"), ("--tol", "nan")])
def test_verify_critical_refuses_an_empty_check(capsys, flags):
    code, out, err = run_cli(capsys, "verify-critical", str(SPEC_DIR / "e2.json"), *flags)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_verify_critical_refuses_too_many_starts_up_front(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "critical_values", [cli, critical])
    code, out, err = run_cli(capsys, "verify-critical", str(SPEC_DIR / "e2.json"),
                             "--starts", str(cli.MAX_STARTS + 1))
    assert code == 2 and out == "" and not calls
    assert err.count("\n") == 1 and str(cli.MAX_STARTS) in err


# x^a + y^b + λxy: critical values found far out overflow s^h (a = 10, 14, 20)
# or the scale |x|^(deg-1) of a diverging start (a = 60); at λ = 1/1000,
# x^60 + y^7 overflows the powers of diverging starts, which must print no
# numpy warning (a warning is an error here, so it would show in err)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, b, lam", [
    *(pytest.param(a, 3, "1", id=str(a)) for a in (10, 14, 20, 60)),
    pytest.param(60, 7, "1/1000", id="x60y7-lambda-1/1000")])
def test_verify_critical_survives_float_overflow(capsys, tmp_path, a, b, lam):
    spec = tmp_path / f"x{a}y{b}.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[a, 0], [0, b]],
                                "lambda_monomial": [1, 1], "mu": [0, 0]}))
    code, out, err = run_cli(capsys, "verify-critical", str(spec), "--lambda", lam)
    assert code in (0, 1) and err == ""
    assert "singular-value equation satisfied: " in out


def test_verify_critical_refuses_an_overflowing_c_lambda_power(capsys, tmp_path, monkeypatch):
    # x^30 + y^7 + λxy has r = 210: c·1000^210 is no complex float
    spec = tmp_path / "x30y7.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[30, 0], [0, 7]],
                                "lambda_monomial": [1, 1], "mu": [0, 0]}))
    searches = []
    monkeypatch.setattr(critical, "_newton_search", lambda *a: searches.append(a))
    code, out, err = run_cli(capsys, "verify-critical", str(spec), "--lambda", "1000")
    assert code == 2 and out == "" and not searches
    assert err.count("\n") == 1 and err.startswith("error: ") and "float range" in err


def test_closed_stdout_is_not_bad_input():
    proc = subprocess.Popen(
        [sys.executable, "-m", "gaussmanin.cli", "intdep", str(SPEC_DIR / "e3.json"),
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 2
    assert err == b""


def test_oversized_spec_exits_2(capsys, tmp_path):
    big = tmp_path / "x400.json"
    big.write_text(json.dumps({"nvars": 2, "monomials": [[400, 0], [0, 301]],
                               "lambda_monomial": [1, 1], "mu": [0, 0]}))
    code, out, err = run_cli(capsys, "analyze", str(big))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "d+h = 120400" in err


def test_oversized_spec_is_refused_before_c(tmp_path):
    # c of x^4000 + y^3999 + λ·x·y has powers of η with exponents near 1.6e7,
    # so the cap must be read off the weights alone
    big = tmp_path / "x4000.json"
    big.write_text(json.dumps({"nvars": 2, "monomials": [[4000, 0], [0, 3999]],
                               "lambda_monomial": [1, 1], "mu": [0, 0]}))
    for cmd in ("analyze", "operator", "intdep"):
        proc = run_python("-m", "gaussmanin.cli", cmd, str(big), timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: {big}: d+h = 15996000 exceeds "
                               f"the supported maximum 2000\n")


def test_c_beyond_the_default_digit_limit_prints(capsys, tmp_path):
    # x^40 + y^49 + λ·x·y: d+h = 1960 is under the cap, but c has more
    # digits than Python's default int-to-str limit of 4300
    spec = tmp_path / "x40.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[40, 0], [0, 49]],
                                "lambda_monomial": [1, 1], "mu": [0, 0]}))
    code, out, err = run_cli(capsys, "analyze", str(spec))
    assert code == 0 and err == ""
    line = next(line for line in out.splitlines() if line.startswith("c = "))
    assert len(line) > 4300
    assert Fraction(line[4:]) == analyze(load_spec_file(spec)).c


def test_unexpected_exception_is_one_line(capsys, monkeypatch):
    def broken(spec):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "build_operator", broken)
    code, out, err = run_cli(capsys, "operator", str(SPEC_DIR / "e2.json"))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("internal error: ")
    assert "Traceback" not in err


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") >= 5


# the a·b^k rule with 1 added to the t = 1 coefficient
_WRONG_PRODUCT_RULE = """
import inspect, sys, textwrap
from gaussmanin import abalgebra, cli, selftest
src = textwrap.dedent(inspect.getsource(abalgebra._mul_int))
rule = "w = w * (i1 - t + 1) * (k2 + t - 1) // t"
if rule not in src:
    sys.exit(3)
ns = {}
exec(src.replace(rule, "w = w * (i1 - t + 1) * (k2 + t - 1) // t + (t == 1)"), vars(abalgebra), ns)
abalgebra._mul_int = ns["_mul_int"]
"""


def test_selftest_fails_under_python_O_on_a_wrong_product_rule():
    proc = run_python("-O", "-c", _WRONG_PRODUCT_RULE + "sys.exit(selftest.run())")
    assert proc.returncode == 1
    assert "FAIL  commutators" in proc.stdout
    # build_operator's InternalError is that suite's FAIL, and the run goes on
    assert "FAIL  two-variable example end to end" in proc.stdout
    assert proc.stdout.endswith("suite(s) failed\n") and proc.stderr == ""


def test_euler_product_certificate_catches_a_wrong_product_rule():
    script = _WRONG_PRODUCT_RULE + "sys.exit(cli.main(sys.argv[1:]))"
    for flags in ((), ("-O",)):
        for fmt in ((), ("--format", "json")):
            proc = run_python(*flags, "-c", script, "operator", str(SPEC_DIR / "e2.json"), *fmt)
            assert proc.returncode == 1 and proc.stdout == ""
            assert proc.stderr.count("\n") == 1
            assert proc.stderr.startswith("internal error: P_6 is not the Euler product")


def test_factor_when_every_table_prime_divides_the_leading_coefficient(tmp_path):
    # λ = 1/P makes P divide the leading coefficient of the integer class
    spec = tmp_path / "x4y4.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[4, 0], [0, 4]],
                                "lambda_monomial": [1, 1]}))
    lam = f"1/{math.prod(ROOT_PRIMES)}"
    proc = run_python("-m", "gaussmanin.cli", "factor", str(spec), f"--lambda={lam}",
                       "--prec", "8", timeout=30)
    assert proc.returncode == 0
    assert "right-divides P_d: yes" in proc.stdout


def test_e61_class_splits_without_sympy(tmp_path):
    # a^d·(a^4 - t^2) with |t| not a square splits into a^d, a^2 - t, a^2 + t
    x10y13 = tmp_path / "x10y13.json"
    x10y13.write_text(json.dumps({"nvars": 2, "monomials": [[10, 0], [0, 13]],
                                  "lambda_monomial": [1, 1]}))
    script = """
import sys
from fractions import Fraction
from gaussmanin.engine import build_operator, load_spec_file
from gaussmanin.scalars import UniPoly, coprime_split
for path in sys.argv[1:]:
    op = build_operator(load_spec_file(path))
    for lam in (1, 2, 3):
        print(len(coprime_split(op.specialized(Fraction(lam)).mod_b())))
for t in (Fraction(3), Fraction(-5, 7), Fraction(2**61 - 1, 6)):
    print(len(coprime_split(UniPoly.x_power(7) * (UniPoly.x_power(4) - UniPoly.const(t * t)))))
print("sympy" in sys.modules)
"""
    proc = run_python("-c", script, str(SPEC_DIR / "e61.json"), str(x10y13), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"] * 6 + ["3"] * 3 + ["False"]


def test_factor_json_bytes_at_h_107(tmp_path):
    # x^10 + y^13 + λxy: d+h = 130, class a^23·(a^107 - w), irreducible by
    # Capelli; stdout sha256 recorded when sympy's factor_list split it (26 s)
    spec = tmp_path / "x10y13.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[10, 0], [0, 13]],
                                "lambda_monomial": [1, 1], "mu": [0, 0]}))
    proc = subprocess.run([sys.executable, "-m", "gaussmanin.cli", "factor", str(spec),
                           "--lambda", "1", "--prec", "25", "--format", "json"],
                          capture_output=True, env=src_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "6fbf7a251579164342c9931893c78c61ef46e3772b10f0066a29fda9c9a4cd8e"


def test_factor_json_keeps_an_int_zero_in_the_bernstein_polynomial(capsys, tmp_path):
    # bernstein_polynomial writes an int 0 as "0" and a Fraction 0 as []; this
    # spec's Bernstein polynomial holds an int 0, so its bytes pin the zero types
    spec = tmp_path / "x5y4.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[5, 4], [4, 3]],
                                "lambda_monomial": [4, 1], "mu": [0, 0]}))
    code, out, _ = run_cli(capsys, "factor", str(spec), "--lambda=-67108864/285311670611",
                           "--prec", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["zero_block"]["bernstein_poly"][0] == "0"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ebe3cb72a75a71bbbc23381f692c801e24a6ed25d43eecefe4135050c95b0b4e"


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "no/such/file.json")
    assert code == 2
    assert err


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2


def test_schema_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nvars": 2, "monomials": [[2, 0]],
                               "lambda_monomial": [1, 1]}))
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2


@pytest.mark.parametrize("field, value", [("monomials", [[2.7, 0], [0, 3]]),
                                          ("lambda_monomial", [True, 1]),
                                          ("mu", ["0", 0]), ("nvars", 2.0)])
def test_non_integer_spec_entry_exits_2(capsys, tmp_path, field, value):
    data = {"nvars": 2, "monomials": [[2, 0], [0, 3]], "lambda_monomial": [1, 1],
            "mu": [0, 0], field: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "not an integer" in err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x.json", "--nonsense"])
    assert exc.value.code == 2
