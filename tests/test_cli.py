import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import SPEC_DIR, run_python, src_env
from gaussmanin import cli, critical, intdep, scalars
from gaussmanin.cli import main
from gaussmanin.engine import RelationData, GMOperator, analyze, build_operator, load_spec_file
from gaussmanin.ode import DiffOp


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# stdout sha256 of the benchmark's jobs, recorded from the command line
REFERENCE = json.loads((SPEC_DIR.parent / "perfbench" / "reference.json").read_text())
SLOW_JOBS = {"intdep specs/e61.json --format json"}
JSON_JOBS = [pytest.param(job, marks=pytest.mark.slow) if job in SLOW_JOBS else job
             for job in sorted(REFERENCE)
             if job.split()[0] in ("operator", "ode", "factor", "intdep")
             and "--format json" in job]


@pytest.mark.parametrize("job", JSON_JOBS)
def test_json_output_is_byte_identical_to_reference(capsys, monkeypatch, job):
    monkeypatch.chdir(SPEC_DIR.parent)
    code, out, _ = run_cli(capsys, *job.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[job]


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
from gaussmanin import abalgebra, selftest
src = textwrap.dedent(inspect.getsource(abalgebra.ABElement.__mul__))
rule = "add = c * (comb(i1, t) * rising)"
if rule not in src:
    sys.exit(3)
ns = {}
exec(src.replace(rule, "add = c * (comb(i1, t) * rising + (t == 1))"), vars(abalgebra), ns)
abalgebra.ABElement.__mul__ = ns["__mul__"]
sys.exit(selftest.run())
"""


def test_selftest_fails_under_python_O_on_a_wrong_product_rule():
    proc = run_python("-O", "-c", _WRONG_PRODUCT_RULE)
    assert proc.returncode == 1
    assert "FAIL  commutators" in proc.stdout


def test_factor_when_every_table_prime_divides_the_leading_coefficient(tmp_path):
    # λ = 1/P makes P divide the leading coefficient of the integer class
    spec = tmp_path / "x4y4.json"
    spec.write_text(json.dumps({"nvars": 2, "monomials": [[4, 0], [0, 4]],
                                "lambda_monomial": [1, 1]}))
    lam = f"1/{math.prod(scalars._ROOT_PRIMES)}"
    proc = run_python("-m", "gaussmanin.cli", "factor", str(spec), f"--lambda={lam}",
                       "--prec", "8", timeout=30)
    assert proc.returncode == 0
    assert "right-divides P_d: yes" in proc.stdout


def test_e61_class_splits_without_sympy():
    script = """
import sys
from fractions import Fraction
from gaussmanin.engine import build_operator, load_spec_file
from gaussmanin.scalars import coprime_split
op = build_operator(load_spec_file(sys.argv[1]))
for lam in (1, 2, 3):
    print(len(coprime_split(op.specialized(Fraction(lam)).mod_b())))
print("sympy" in sys.modules)
"""
    proc = run_python("-c", script, str(SPEC_DIR / "e61.json"))
    assert proc.returncode == 0
    assert proc.stdout.split() == ["2", "2", "2", "False"]


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
