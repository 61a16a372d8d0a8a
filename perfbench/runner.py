"""Cold, isolated execution of one job, of a check, and of the set-up probe.

Each job runs in a child forked from a parent that has imported
`gaussmanin.cli` and nothing else, so every job starts from the state of a
fresh CLI process right after import: no `analyze` cache entry and no chain
expansion survives from an earlier job.  The child times the call itself,
writes stdout and stderr to files and reports through a pipe; the parent
reads the child's peak RSS from `wait4`.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

JOB_TIMEOUT_S = 90


def _call(job: dict) -> int:
    if job.get("library") == "split_irregular":
        from gaussmanin import factor
        from gaussmanin.abalgebra import ABElement

        p = ABElement.from_json(json.loads(Path(job["input"]).read_text()))
        split = factor.split_irregular(p, job["order"])
        print(json.dumps(split.to_json(), indent=2))
        return 0
    from gaussmanin import cli

    return cli.main(job["argv"])


def in_child(fn, timeout_s: int = JOB_TIMEOUT_S, stdout_path=None, stderr_path=None):
    """Run fn() in a forked child; return (its JSON-able result or None,
    exit status, peak RSS in MB).  fn's stdout and stderr go to the given
    files (or /dev/null)."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            signal.alarm(timeout_s)
            for fd, path in ((1, stdout_path), (2, stderr_path)):
                target = os.open(path or os.devnull, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(target, fd)
                os.close(target)
            result = fn()
            sys.stdout.flush()
            sys.stderr.flush()
            with os.fdopen(wfd, "w") as fh:
                json.dump(result, fh)
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
            os._exit(70)
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    result = json.loads(data) if data else None
    return result, status, usage.ru_maxrss / 1024.0


def run_job(job: dict, stdout_path: Path, stderr_path: Path, tracer=None) -> dict:
    """Run one job cold; return its exit code, seconds and peak RSS."""

    def body():
        if tracer is not None:
            tracer.install()
            tracer.begin_job(job)
        escaped = False
        t0 = time.perf_counter()
        try:
            rc = _call(job)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # what the interpreter does with an uncaught exception
            traceback.print_exc()
            rc, escaped = 1, True
        sys.stdout.flush()
        seconds = time.perf_counter() - t0
        trace = None
        if tracer is not None:
            tracer.end_job(escaped)
            trace = tracer.export()
        return {"rc": rc, "seconds": seconds, "trace": trace}

    result, status, rss_mb = in_child(body, JOB_TIMEOUT_S, stdout_path, stderr_path)
    if result is None:
        sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
        why = "timeout" if sig == signal.SIGALRM else f"child died (status {status})"
        return {"rc": None, "seconds": None, "peak_rss_mb": rss_mb, "error": why, "trace": None}
    return dict(result, peak_rss_mb=rss_mb, error=None)


SETUP_CODE = (
    "import gaussmanin.cli as cli\n"
    "cli.build_parser()\n"
)


def setup_seconds(root: Path) -> float:
    """Seconds from launching a fresh interpreter to `gaussmanin.cli`
    imported and its parser built."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0
