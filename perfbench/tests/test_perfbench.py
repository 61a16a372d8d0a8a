"""Tests of the benchmark itself: quick job lists end to end, output checks,
traced against untraced outputs, and the printed metric names and units.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = Path("perfbench/.out/tests")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(kind) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_job_list_runs_end_to_end(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--quick"))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_layers_and_matches_untraced_outputs():
    result = last_json(run_bench("--workload", "interactive", "--seed", "3", "--seconds", "1",
                                 "--trace", "1", "--quick"))
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    data = json.loads((BENCH / ".out/interactive-seed3-trace1-quick/results.json").read_text())
    plain = {r["id"]: r["sha256"] for r in data["records"] if r["pass"] == "plain"}
    traced = {r["id"]: r["sha256"] for r in data["records"] if r["pass"] == "traced"}
    assert plain == traced and len(plain) > 10
    assert result["metrics"]["critical.critical_values.calls"]["value"] > 0
    assert result["metrics"]["engine.analyze.calls"]["value"] > 0


def test_every_metric_has_a_documented_layer_map():
    layers = json.loads((BENCH / "layers.json").read_text())
    assert set(layers["layer_to_end_to_end"]) == set(units("per_layer"))
    assert set(layers["known_defects"]) == {"bad-exponents", "x400"}


def _check(job, stdout: bytes, rc=0, stderr=b""):
    d = ROOT / SCRATCH
    d.mkdir(parents=True, exist_ok=True)
    out, err = d / "job.out", d / "job.err"
    out.write_bytes(stdout)
    err.write_bytes(stderr)
    reference = json.loads((BENCH / "reference.json").read_text())
    return checks.check_job(job, rc, out, err, reference, seed=1)


@pytest.fixture()
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _good_output(argv) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "gaussmanin.cli", *argv], cwd=ROOT,
                          capture_output=True, env={"PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0
    return proc.stdout


def test_corrupted_stdout_fails_reference_check(in_root):
    job = workloads.cli_job(["analyze", "specs/e2.json"], "analyze_text", "specs/e2.json")
    job["reference"] = True
    good = _good_output(job["argv"])
    assert _check(job, good)["ok"]
    bad = _check(job, good.replace(b"c = -1/432", b"c = -1/433"))
    assert not bad["ok"] and "reference" in bad["why"]


def test_corrupted_stdout_fails_seed_independent_check(in_root):
    spec = "specs/e3.json"
    for argv, kind in [(["operator", spec, "--format", "json"], "operator_json"),
                       (["intdep", spec], "intdep_text"),
                       (["intdep", spec, "--format", "json"], "intdep_json")]:
        job = workloads.cli_job(argv, kind, spec)
        job["reference"] = False
        good = _good_output(argv)
        assert _check(job, good)["ok"], kind
        # change one coefficient digit somewhere in the middle of the output
        text = good.decode()
        pos = next(i for i in range(len(text) // 2, len(text)) if text[i] in "23456789")
        bad = (text[:pos] + str(int(text[pos]) - 1) + text[pos + 1:]).encode()
        assert not _check(job, bad)["ok"], kind


def test_reject_check_wants_exit_2_and_one_line(in_root):
    job = workloads.cli_job(["analyze", "specs/homog.json"], "reject", expect_rc=2)
    job["reference"] = False
    assert _check(job, b"", rc=2, stderr=b"error: quasi-homogeneous\n")["ok"]
    assert not _check(job, b"", rc=1, stderr=b"error\n")["ok"]
    assert not _check(job, b"", rc=2, stderr=b"Traceback (most recent call last):\n  x\n")["ok"]


def test_oracle_matches_the_paper(in_root):
    e61 = checks.oracle("specs/e61.json")
    assert (e61["d"], e61["h"], e61["r"]) == (61, 15, -61)
    assert e61["c"] == Fraction(-61**61 * 15**15, 34**34 * 22**22 * 20**20)
    assert checks.oracle("specs/quintic.json")["c"] == Fraction(1, 3125)
    assert checks.oracle("specs/e2.json")["c"] == Fraction(-1, 432)


def test_generated_inputs_depend_only_on_the_seed(in_root):
    def gen(seed, tag):
        inputs = SCRATCH / f"gen-{tag}"
        shutil.rmtree(inputs, ignore_errors=True)
        jobs = workloads.generate("factor", seed, inputs, "quick")
        return [json.dumps(j["argv"] if "argv" in j else j["shape"]).replace(str(inputs), "")
                for j in jobs], sorted(p.read_text() for p in inputs.glob("*-*.json"))

    assert gen(5, "first") == gen(5, "second")
    assert gen(5, "first") != gen(6, "third")


def test_fails_without_the_sources():
    bare = ROOT / SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    try:
        proc = run_bench("--workload", "interactive", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
