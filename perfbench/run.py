"""Job-suite benchmark for gaussmanin.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 55 --trace 0

Workloads (perfbench/workloads.py): `exact` runs the construct, factor and
intdep job lists together; `interactive` runs many small jobs over every
subcommand plus rejected inputs; `construct`, `factor` and `intdep` run one
list alone.  The job list and its random inputs come from --seed.  Jobs run
one at a time (a closed loop with one client), each cold in a child forked
from this process (perfbench/runner.py); the list runs in passes, as many
as fit in --seconds and at least one.  Every output is checked after timing
(perfbench/checks.py).

--trace 0 prints the end-to-end metrics: wall_s (sum of per-job times),
job_geomean_s and job_max_s (per-job times are medians over the passes),
setup_s (median of fresh-interpreter start-ups to gaussmanin.cli imported
and its parser built, sampled every few seconds through the run) and
peak_rss_mb (largest per-job peak RSS).  --trace 1 runs each job once untraced
and once traced and prints the per-layer metrics of perfbench/spans.py plus
trace.overhead_s.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Inputs, job list, outputs, per-job records, run metadata and
spans go to perfbench/.out/<workload>-seed<seed>-trace<t>/ for replay.

--quick runs a few small jobs per workload (the benchmark's own tests use
it); --heavy adds the long e61 and e3 jobs (e61 factor at --prec 63 takes
about a minute); --record-reference rewrites perfbench/reference.json from
the outputs of the current sources, which is only right at a commit whose
outputs are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = Path("perfbench/.out")   # relative: main() runs from ROOT; dot dir: pytest skips it
REFERENCE = BENCH / "reference.json"
SETUP_EVERY_S = 5.0     # one set-up sample at the start and then every few seconds

END_TO_END = {"wall_s": "s", "job_geomean_s": "s", "job_max_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import gaussmanin from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gaussmanin.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gaussmanin from {ROOT / 'src'}: {exc}")
    import gaussmanin

    if Path(gaussmanin.__file__).resolve().parent != ROOT / "src" / "gaussmanin":
        raise SystemExit(f"perfbench: gaussmanin imported from {gaussmanin.__file__}, "
                         f"not from {ROOT / 'src'}")


def metadata(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        head = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_head": head, "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "src_lines": src_lines}


def run_one(job, i: int, run_dir: Path, tag: str, args, reference, traced=False) -> dict:
    """Run job number i cold, then check its output outside the timed region."""
    import checks
    import runner
    import spans

    out, err = run_dir / f"{tag}-{i:03d}.out", run_dir / f"{tag}-{i:03d}.err"
    res = runner.run_job(job, out, err, spans.Tracer() if traced else None)
    chk, _, _ = runner.in_child(lambda: checks.check_job(
        job, res["rc"], out, err, reference, args.seed, want_bits=traced), timeout_s=300)
    if res["error"]:
        chk = {"ok": False, "why": res["error"], "sha256": None, "coeff_bits": 0}
    elif chk is None:
        chk = {"ok": False, "why": "output check crashed", "sha256": None, "coeff_bits": 0}
    if job["known_defect"]:
        status = "known-defect" if not chk["ok"] else "known-defect-fixed"
    else:
        status = "ok" if chk["ok"] else "failed"
    return {"id": job["id"], "pass": tag, "status": status, "why": chk["why"],
            "rc": res["rc"], "seconds": res["seconds"], "peak_rss_mb": res["peak_rss_mb"],
            "sha256": chk["sha256"], "coeff_bits": chk["coeff_bits"], "trace": res["trace"]}


def run_pass(jobs, run_dir: Path, tag: str, args, reference, setup: list) -> list[dict]:
    """Run every job once, appending a set-up sample to `setup` whenever
    SETUP_EVERY_S have passed, so the samples spread over the run."""
    import runner

    records = []
    for i, job in enumerate(jobs):
        if time.perf_counter() - setup[-1][0] >= SETUP_EVERY_S:
            setup.append((time.perf_counter(), runner.setup_seconds(ROOT)))
        records.append(run_one(job, i, run_dir, tag, args, reference))
    return records


def per_job_seconds(passes: list[list[dict]]) -> list[float]:
    times: dict[str, list[float]] = {}
    for records in passes:
        for rec in records:
            if rec["seconds"] is not None:
                times.setdefault(rec["id"], []).append(rec["seconds"])
    return [statistics.median(v) for v in times.values()]


def end_to_end(passes, setup) -> dict[str, float]:
    secs = per_job_seconds(passes)
    return {
        "wall_s": sum(secs),
        "job_geomean_s": math.exp(statistics.fmean(math.log(s) for s in secs)),
        "job_max_s": max(secs),
        "setup_s": statistics.median(s for _, s in setup[1:]),
        "peak_rss_mb": max(r["peak_rss_mb"] for records in passes for r in records),
    }


def traced_metrics(plain, traced) -> dict[str, float]:
    import spans

    all_spans, counters, bits = [], {}, 0
    for rec in traced:
        if rec["trace"]:
            offset = len(all_spans)
            for name, start, end, parent, job, failed in rec["trace"]["spans"]:
                all_spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                                  job, failed))
            spans.merge_counters(counters, rec["trace"]["counters"])
        bits = max(bits, rec["coeff_bits"])
    out = spans.layer_metrics(all_spans, counters, bits)
    out["trace.overhead_s"] = sum(per_job_seconds([traced])) - sum(per_job_seconds([plain]))
    return out


def job_breakdown(traced) -> dict[str, dict[str, float]]:
    """Per traced job: seconds and the total seconds of each span name."""
    import spans

    out = {}
    for rec in traced:
        if rec["trace"]:
            fig = spans.span_figures([tuple(s) for s in rec["trace"]["spans"]])
            out[rec["id"]] = {"seconds": rec["seconds"],
                              **{name: f["total"] for name, f in fig.items()}}
    return out


def record_reference(args) -> int:
    import runner
    import workloads

    ref = {}
    sizes = ("quick", "heavy" if args.heavy else "default")
    for workload, size in [(w, z) for w in workloads.JOB_LISTS for z in sizes]:
        run_dir = OUT / f"reference-{workload}-{size}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        jobs, _, _ = runner.in_child(lambda: workloads.generate(
            workload, args.seed, run_dir / "inputs", size), timeout_s=300)
        for i, job in enumerate(j for j in jobs if j["reference"]):
            out = run_dir / f"{i:03d}.out"
            res = runner.run_job(job, out, run_dir / f"{i:03d}.err")
            if res["rc"] != job["expect_rc"]:
                print(f"perfbench: {job['id']} exited {res['rc']}", file=sys.stderr)
                return 1
            ref[job["id"]] = hashlib.sha256(out.read_bytes()).hexdigest()
    if REFERENCE.exists():
        ref = {**json.loads(REFERENCE.read_text()), **ref}
    REFERENCE.write_text(json.dumps(dict(sorted(ref.items())), indent=1) + "\n")
    print(f"recorded {len(ref)} reference outputs in {REFERENCE}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload",
                   choices=("exact", "construct", "factor", "intdep", "interactive"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--heavy", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_package()
    sys.path.insert(0, str(BENCH))
    import runner
    import spans
    import workloads

    if args.record_reference:
        return record_reference(args)
    reference = json.loads(REFERENCE.read_text())
    size = "quick" if args.quick else "heavy" if args.heavy else "default"
    suffix = "" if size == "default" else f"-{size}"
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    jobs, _, _ = runner.in_child(lambda: workloads.generate(
        args.workload, args.seed, run_dir / "inputs", size), timeout_s=300)
    if jobs is None:
        print("perfbench: input generation failed", file=sys.stderr)
        return 1

    if args.trace:
        # each job runs untraced and then traced, so both see the same machine
        plain, traced = [], []
        for i, job in enumerate(jobs):
            plain.append(run_one(job, i, run_dir, "plain", args, reference))
            traced.append(run_one(job, i, run_dir, "traced", args, reference, traced=True))
        for a, b in zip(plain, traced):
            if b["status"] == "ok" and a["sha256"] != b["sha256"]:
                b.update(status="failed", why="traced stdout differs from untraced stdout")
        passes = [plain, traced]
        values = traced_metrics(plain, traced)
        units = spans.UNITS
        with open(run_dir / "trace.jsonl", "w") as fh:
            for rec in traced:
                for span in (rec["trace"] or {}).get("spans", []):
                    fh.write(json.dumps(span) + "\n")
        extra = {"jobs": job_breakdown(traced)}
    else:
        # the first launch compiles the bytecode cache and is not counted
        setup = [(time.perf_counter(), runner.setup_seconds(ROOT))]
        setup.append((time.perf_counter(), runner.setup_seconds(ROOT)))
        # another pass only if it should end within --seconds; always one
        passes, start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(jobs, run_dir, f"pass{len(passes)}", args, reference, setup))
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
        values = end_to_end(passes, setup)
        units = END_TO_END
        extra = {"setup_samples_s": [s for _, s in setup[1:]]}

    records = [rec for records in passes for rec in records]
    failed = [r for r in records if r["status"] == "failed"]
    defects = [r for r in records if r["status"].startswith("known")]
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    for rec in records:
        rec.pop("trace")
    meta = metadata(args)
    (run_dir / "results.json").write_text(json.dumps({
        **result, "meta": meta, "passes": len(passes),
        "fail_ratio": len(failed) / len(records),
        "fail_ratio_with_known_defects": (len(failed) + sum(
            r["status"] == "known-defect" for r in defects)) / len(records),
        "records": records, **extra}, indent=1) + "\n")

    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:36s} {m['value']:14.6f} {m['unit']}")
    for rec in failed:
        print(f"FAILED {rec['id']}: {rec['why']}", file=sys.stderr)
    for rec in defects:
        print(f"{rec['status'].upper()} {rec['id']}: {rec['why'] or 'now passes'}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
