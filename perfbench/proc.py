"""Run one CLI process to completion and measure it.

Each call is timed from just before the process is spawned until it has
been reaped, so interpreter start, imports and exit are all inside the
wall time.  Peak RSS comes from that child's own rusage (``wait4``), not
from the cumulative ``RUSAGE_CHILDREN`` of the benchmark process.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class CallResult:
    status: int          # exit status; negative for a signal, as in subprocess
    timed_out: bool
    wall_s: float
    peak_rss_kb: int
    stdout: str
    stderr: str


#: the console-script entry point, run from the source tree
CLI = [sys.executable, "-c",
       "import sys; from supercyclic.cli import main; sys.exit(main())"]


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SUPERCYCLIC_CHECKPOINT_DIR", None)
    return env


def _reap(pid: int, deadline: float) -> tuple[int, bool, int]:
    """Wait for ``pid`` until ``deadline`` (monotonic); kill it after that.

    Returns (exit status, timed out, peak RSS in KiB).
    """
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [],
                                    max(0.0, deadline - time.monotonic()))
    finally:
        os.close(fd)
    if not ready:
        os.kill(pid, signal.SIGKILL)  # still unreaped, so the pid is ours
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), not ready, usage.ru_maxrss


def run_calls(commands: list[list[str]], *, root: Path, scratch: Path,
              deadline: float) -> list[CallResult]:
    """Start every command at once in ``root``, wait for all, time the group.

    A single command is the ordinary closed-loop call.  Several run
    concurrently (the two halves of a split stream); each result then
    carries the wall time of the whole group.  ``src/`` is the import path,
    stdin is empty, and every process is killed at ``deadline``.
    """
    env = _env(root)
    files = []
    procs = []
    try:
        for i in range(len(commands)):
            files.append((open(scratch / f"call{i}.out", "w+b"),
                          open(scratch / f"call{i}.err", "w+b")))
        start = time.perf_counter()
        for cmd, (fout, ferr) in zip(commands, files):
            procs.append(subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr,
                env=env, cwd=root))
        reaped = []
        for p in procs:
            status, timed_out, rss = _reap(p.pid, deadline)
            p.returncode = status  # reaped by wait4; keep Popen from waiting
            reaped.append((status, timed_out, rss))
        wall = time.perf_counter() - start
        results = []
        for (status, timed_out, rss), (fout, ferr) in zip(reaped, files):
            fout.seek(0)
            ferr.seek(0)
            results.append(CallResult(
                status, timed_out, wall, rss,
                fout.read().decode("utf-8", "replace"),
                ferr.read().decode("utf-8", "replace")))
        return results
    finally:
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
        for group in files:
            for fh in group:
                fh.close()
